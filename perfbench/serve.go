package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/psclient"
	"repro/serve"
	"repro/wire"
)

// serveParams sizes the serve-stream workload.
type serveParams struct {
	sensors  int
	interval time.Duration
	// rates are the offered loads of the phases, in queries per second:
	// "low" then "high". high stays below the rate at which the single
	// sequential watcher falls behind.
	low, high float64
	// warm is the share of each phase whose queries are excluded from
	// the latency metrics (they still count for correctness).
	warm   float64
	retain time.Duration
	setups int
}

var (
	serveFull = serveParams{sensors: 1_000, interval: 50 * time.Millisecond, low: 1_000, high: 4_000, warm: 0.1, retain: 5 * time.Second, setups: 9}
	serveTiny = serveParams{sensors: 300, interval: 50 * time.Millisecond, low: 100, high: 200, warm: 0.1, retain: 5 * time.Second, setups: 2}
)

// serveRig is the serving stack in one process: a real-clock engine over
// an unsharded lazy-greedy aggregator, the HTTP server on a loopback
// listener, and two psclient clients, one submitting and one watching.
type serveRig struct {
	eng    *ps.Engine
	srv    *serve.Server
	hs     *http.Server
	served sync.WaitGroup

	submit, watch *psclient.Client
	transports    []*http.Transport
	submitSpan    atomic.Int64
	watchSpan     atomic.Int64
	timer         *httpTimer
	wires         wireCounter
	world         *ps.World
}

func startServe(p serveParams, seed uint64, tr *tracer) (*serveRig, error) {
	rig := &serveRig{}
	rig.world = ps.NewRWMWorld(int64(seed), p.sensors, ps.SensorConfig{})
	agg := ps.NewAggregator(rig.world, ps.WithScheduling(ps.SchedulingGreedy), ps.WithGreedyStrategy(ps.StrategyLazy))
	rig.eng = ps.NewEngine(agg, ps.WithSlotInterval(p.interval))
	rig.eng.Start()
	// Finished query records stay pollable for Retain. The watcher reads
	// each stream within milliseconds of its final frame, so a short
	// window bounds the registry at a few seconds of queries; the 10-minute
	// default would grow the heap with the run's length instead.
	rig.srv = serve.New(rig.eng, rig.world, serve.Options{Strategy: ps.StrategyLazy, Retain: p.retain})

	var handler http.Handler = rig.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		rig.timer = &httpTimer{next: handler, tr: tr, samples: map[string][]float64{}}
		handler = rig.timer
		ln = &countingListener{Listener: ln, tr: tr, count: &rig.wires, conn: "serve.conn"}
	}
	rig.hs = &http.Server{Handler: handler}
	rig.served.Add(1)
	go func() {
		defer rig.served.Done()
		_ = rig.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()

	client := func(parent *atomic.Int64) (*psclient.Client, error) {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		rig.transports = append(rig.transports, t)
		var rt http.RoundTripper = t
		if tr != nil {
			rt = spanTransport{base: t, parent: parent}
		}
		return psclient.Dial("http://"+addr, psclient.WithHTTPClient(&http.Client{Transport: rt}))
	}
	if rig.submit, err = client(&rig.submitSpan); err == nil {
		rig.watch, err = client(&rig.watchSpan)
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range []*psclient.Client{rig.submit, rig.watch} {
		if _, err := c.Healthz(ctx); err != nil {
			rig.close()
			return nil, fmt.Errorf("healthz: %w", err)
		}
	}
	return rig, nil
}

func (r *serveRig) close() {
	if r.srv != nil {
		r.srv.Shutdown()
	}
	if r.hs != nil {
		_ = r.hs.Close() // the listener's close error is of no interest at teardown
	}
	r.served.Wait()
	for _, t := range r.transports {
		t.CloseIdleConnections()
	}
	r.eng.Stop()
}

// sent is one accepted query handed from the submitter to the watcher.
type sent struct {
	id       string
	due      time.Time
	budget   float64
	measured bool
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	finals      []float64 // due time to the final frame's server timestamp, ms; +Inf for a miss
	accepted    int
	slotUpdates int
	answered    int
	rejects     int
	batchMs     []float64
	delivery    []float64
	reconnects  int64
	lateMax     float64
	finalFrames int
	// served runs from the phase's start to the server timestamp of its
	// last final frame: the time the phase's answers took to publish,
	// however long the watcher then needed to read them.
	served time.Duration
	lastTS int64
	// Per executed slot, over the measured queries it answered: the
	// earliest due time (ns) and the publish timestamp of its frames.
	slotDue, slotTS map[int]int64
	attempted       int64
	failed          int64
	problems        []string
	problemsMu      sync.Mutex
	watcherFailed   int64
	// missed counts measured queries the submitter saw refused; they are
	// added to finals as misses once the watcher is done with finals.
	missed int
}

// slotCycles returns each slot's cycle as clients see it, in ms: from
// the earliest due time of a query the slot answered to the publish
// timestamp of the slot's frames. It is the slot interval plus the time
// ingest, selection and publish added to it — the open-loop counterpart
// of the closed loops' first-submit-to-RunSlot cycle. (The engine's own
// slot execution time, a millisecond or two, moved by a quarter from run
// to run on two CPUs; it is reported per layer as engine.slot_ms.)
func (s *phaseStats) slotCycles() []float64 {
	var out []float64
	for slot, due := range s.slotDue {
		out = append(out, float64(s.slotTS[slot]-due)/1e6)
	}
	return out
}

func (s *phaseStats) problem(format string, args ...any) {
	s.problemsMu.Lock()
	defer s.problemsMu.Unlock()
	if len(s.problems) < 20 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// schedule is one phase's arrivals: each query and when it is due,
// relative to the phase's start.
type schedule struct {
	due   []time.Duration
	specs []ps.Spec
}

// serveDemand draws a phase's arrivals: exponential inter-arrival gaps
// at the phase's rate, from the seed, so arrivals do not phase-lock with
// the slot clock. Mostly points, with multipoints and aggregates.
func serveDemand(w *ps.World, seed uint64, phase int, rate, seconds float64) schedule {
	r := rand.New(rand.NewPCG(seed, uint64(1000+phase)))
	u := func(a, b float64) float64 { return a + (b-a)*r.Float64() }
	wr := w.Working
	var due []time.Duration
	var specs []ps.Spec
	for at := r.ExpFloat64() / rate; at < seconds; at += r.ExpFloat64() / rate {
		id := fmt.Sprintf("p%d-q%d", phase, len(specs))
		loc := ps.Pt(u(wr.MinX, wr.MaxX), u(wr.MinY, wr.MaxY))
		var s ps.Spec
		switch k := r.IntN(20); {
		case k < 16:
			s = ps.PointSpec{ID: id, Loc: loc, Budget: 10 + u(0, 20)}
		case k < 19:
			s = ps.MultiPointSpec{ID: id, Loc: loc, Budget: 60 + u(0, 80), K: 3}
		default:
			x, y := u(wr.MinX, wr.MaxX-12), u(wr.MinY, wr.MaxY-12)
			s = ps.AggregateSpec{ID: id, Region: ps.NewRect(x, y, x+u(6, 12), y+u(6, 12)), Budget: 200 + u(0, 200)}
		}
		due = append(due, time.Duration(at*float64(time.Second)))
		specs = append(specs, s)
	}
	return schedule{due, specs}
}

// runPhase offers one open-loop phase: the submitter sends every query
// that is due in one SubmitBatch, timed from when it was due; the
// watcher follows every accepted query's /watch stream, in submission
// order, to its terminal frame.
func runPhase(ctx context.Context, rig *serveRig, tr *tracer, p serveParams, phase int, d schedule, seconds float64) *phaseStats {
	due, specs := d.due, d.specs
	st := &phaseStats{slotDue: map[int]int64{}, slotTS: map[int]int64{}}
	warmUntil := time.Duration(p.warm * seconds * float64(time.Second))
	accepted := make(chan sent, len(specs)) // one send per spec at most

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watchAll(ctx, rig, tr, accepted, st)
	}()

	start := time.Now()
	for i := 0; i < len(specs); {
		now := time.Since(start)
		if due[i] > now {
			time.Sleep(due[i] - now)
			continue
		}
		j := i
		for j < len(specs) && j-i < wire.MaxBatch && due[j] <= now {
			j++
		}
		st.lateMax = max(st.lateMax, ms(now-due[i]))
		bs := time.Now()
		span := tr.open("psclient.SubmitBatch", specs[i].QueryID(), 0, bs)
		rig.submitSpan.Store(int64(span))
		res, err := rig.submit.SubmitBatch(ctx, specs[i:j])
		be := time.Now()
		tr.close(span, be)
		st.batchMs = append(st.batchMs, ms(be.Sub(bs)))
		for k := i; k < j; k++ {
			st.attempted++
			measured := due[k] >= warmUntil
			if err != nil || res[k-i].Status != "accepted" {
				st.failed++
				st.rejects++
				if measured {
					st.missed++
				}
				if err != nil && k == i {
					st.problem("phase %d: batch at %q: %v", phase, specs[k].QueryID(), err)
				}
				continue
			}
			st.accepted++
			accepted <- sent{id: specs[k].QueryID(), due: start.Add(due[k]), budget: budgetOf(specs[k]), measured: measured}
		}
		i = j
	}
	close(accepted)
	wg.Wait()
	st.served = time.Since(start)
	if st.lastTS > 0 {
		st.served = time.Duration(st.lastTS - start.UnixNano())
	}
	for ; st.missed > 0; st.missed-- {
		st.finals = append(st.finals, math.Inf(1))
	}
	return st
}

// watchAll follows each accepted query's stream to its terminal frame,
// checking that it is one final frame and that no result pays past the
// query's budget.
func watchAll(ctx context.Context, rig *serveRig, tr *tracer, accepted <-chan sent, st *phaseStats) {
	for q := range accepted {
		stream := rig.watch.Stream(q.id)
		connect := time.Now()
		span := tr.open("psclient.watch", q.id, 0, connect)
		rig.watchSpan.Store(int64(span))
		var finalTS int64
		var finalSlot int
		for {
			f, err := stream.Next(ctx)
			recv := time.Now()
			if err != nil {
				st.problem("watch %q: %v", q.id, err)
				st.watcherFailed++
				break
			}
			if f.TS >= connect.UnixNano() {
				st.delivery = append(st.delivery, float64(recv.UnixNano()-f.TS)/1e6)
			}
			switch f.Event {
			case wire.FrameSlotUpdate:
				st.slotUpdates++
				if f.Result != nil && f.Result.Answered {
					st.answered++
				}
				if f.Result != nil && f.Result.Payment > q.budget*(1+1e-9) {
					st.problem("query %q paid %v against a budget of %v", q.id, f.Result.Payment, q.budget)
				}
			case wire.FrameFinal:
				finalTS, finalSlot = f.TS, f.Slot
				st.lastTS = max(st.lastTS, f.TS)
				st.finalFrames++
			case wire.FrameCanceled:
				st.problem("query %q ended canceled, want final", q.id)
			}
			if f.Terminal() {
				break
			}
		}
		tr.close(span, time.Now())
		st.reconnects += stream.Stats().Reconnects
		_ = stream.Close() // the stream already ended; nothing is left to release
		if q.measured {
			if finalTS > 0 {
				st.finals = append(st.finals, float64(finalTS-q.due.UnixNano())/1e6)
				if d, ok := st.slotDue[finalSlot]; !ok || q.due.UnixNano() < d {
					st.slotDue[finalSlot] = q.due.UnixNano()
				}
				st.slotTS[finalSlot] = max(st.slotTS[finalSlot], finalTS)
			} else {
				st.finals = append(st.finals, math.Inf(1))
			}
		}
	}
}

// slotPoller samples the engine's last slot latency and queue depth
// every few milliseconds, recording one latency per executed slot (the
// 50 ms slot interval is far longer than the poll period).
type slotPoller struct {
	slots    []float64
	depthMax int
	heap     *heapTrack
	stop     chan struct{}
	done     chan struct{}
}

func pollSlots(eng *ps.Engine, heap *heapTrack) *slotPoller {
	sp := &slotPoller{heap: heap, stop: make(chan struct{}), done: make(chan struct{})}
	last := eng.Metrics().LastSlot
	go func() {
		defer close(sp.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case <-tick.C:
			}
			depth, _ := eng.QueueStats()
			sp.depthMax = max(sp.depthMax, depth)
			m := eng.Metrics()
			if m.LastSlot != last {
				last = m.LastSlot
				sp.slots = append(sp.slots, ms(m.SlotLatencyLast))
				sp.heap.observe(last)
			}
		}
	}()
	return sp
}

func (sp *slotPoller) finish() {
	close(sp.stop)
	<-sp.done
}

// runServe is the serve-stream workload.
func runServe(o options, tr *tracer) (*outcome, error) {
	p := serveFull
	if o.tiny {
		p = serveTiny
	}
	out := newOutcome()

	// Set-up builds the stack and generates both phases' arrival
	// schedules: the stack alone takes about a millisecond, too little to
	// time steadily.
	half := o.seconds / 2
	var setups []float64
	var rig *serveRig
	var lowDemand, highDemand schedule
	for i := 0; i < p.setups; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC() // time each set-up from a collected heap, not its predecessor's garbage
		start := time.Now()
		var err error
		if rig, err = startServe(p, o.seed, tr); err != nil {
			return nil, err
		}
		lowDemand = serveDemand(rig.world, o.seed, 0, p.low, half)
		highDemand = serveDemand(rig.world, o.seed, 1, p.high, half)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.close()
	out.e2e["setup_s"] = median(setups)

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+90*time.Second)
	defer cancel()
	heap := newHeapTrack()
	m0 := rig.eng.Metrics()
	p0 := sampleProc()
	lowPoll := pollSlots(rig.eng, heap)
	low := runPhase(ctx, rig, tr, p, 0, lowDemand, half)
	lowPoll.finish()
	highPoll := pollSlots(rig.eng, heap)
	high := runPhase(ctx, rig, tr, p, 1, highDemand, half)
	highPoll.finish()
	p1 := sampleProc()
	m1 := rig.eng.Metrics()
	out.e2e["heap_mb"] = liveHeapMB()

	var answered, accepted, slotUpdates, finalFrames, rejects int
	var batch, delivery []float64
	var reconnects int64
	for _, st := range []*phaseStats{low, high} {
		out.attempted += st.attempted
		out.failed += st.failed + st.watcherFailed
		out.problems = append(out.problems, st.problems...)
		answered += st.answered
		accepted += st.accepted
		slotUpdates += st.slotUpdates
		finalFrames += st.finalFrames
		rejects += st.rejects
		batch = append(batch, st.batchMs...)
		delivery = append(delivery, st.delivery...)
		reconnects += st.reconnects
	}
	slots := len(lowPoll.slots) + len(highPoll.slots)
	cycles := high.slotCycles()
	out.e2e["slot_ms_p50"] = pct(cycles, 0.50)
	out.e2e["slot_ms_p90"] = pct(cycles, 0.90)
	out.e2e["query_slots_per_s"] = float64(answered) / (low.served + high.served).Seconds()
	out.e2e["final_ms_p50.low"] = pct(low.finals, 0.50)
	out.e2e["final_ms_p99.low"] = pct(low.finals, 0.99)
	out.e2e["final_ms_p50.high"] = pct(high.finals, 0.50)
	out.e2e["final_ms_p99.high"] = pct(high.finals, 0.99)
	out.e2e["ok_frac"] = 1 - ratio(float64(out.failed), float64(out.attempted))

	l := out.layer
	procMetrics(l, p0, p1, slots, int(out.attempted), heap)
	l["gen.late_ms_max"] = max(low.lateMax, high.lateMax)
	l["engine.queue_depth_max"] = float64(max(lowPoll.depthMax, highPoll.depthMax))
	l["engine.slot_ms"] = mean(append(lowPoll.slots, highPoll.slots...))
	l["engine.events_dropped"] = float64(m1.EventsDropped - m0.EventsDropped)
	l["engine.gap_events"] = float64(m1.GapEvents - m0.GapEvents)
	stageMean := func(name string) float64 {
		var a, b ps.StageStats
		for _, s := range m0.SlotStages {
			if s.Stage == name {
				a = s
			}
		}
		for _, s := range m1.SlotStages {
			if s.Stage == name {
				b = s
			}
		}
		return ratio(ms(b.Total-a.Total), float64(b.Count-a.Count))
	}
	l["engine.ingest_ms"] = stageMean(ps.StageIngest)
	l["engine.publish_ms"] = stageMean(ps.StagePublish)
	for _, st := range []string{"offer_gather", "commit", "accounting"} {
		l["ps."+st+"_ms"] = stageMean(st)
	}
	l["ps.selection_ms"] = stageMean(ps.StageSelection)
	n := float64(max(m1.Slots-m0.Slots, 1))
	calls := float64(m1.ValuationCalls - m0.ValuationCalls)
	saved := float64(m1.ValuationCallsSaved - m0.ValuationCallsSaved)
	l["core.valuation_calls_per_slot"] = calls / n
	l["core.calls_saved_ratio"] = ratio(saved, calls+saved)
	l["core.lazy_reevals_per_slot"] = float64(m1.LazyReevaluations-m0.LazyReevaluations) / n
	l["core.fallback_rescans"] = float64(m1.FallbackRescans - m0.FallbackRescans)
	l["core.geom_hit_ratio"] = ratio(float64(m1.GeomCacheHits-m0.GeomCacheHits), float64(m1.GeomCacheLookups-m0.GeomCacheLookups))
	l["psclient.submit_batch_ms_p50"] = pct(batch, 0.50)
	l["psclient.delivery_ms_p50"] = pct(delivery, 0.50)
	l["psclient.delivery_ms_p99"] = pct(delivery, 0.99)
	l["psclient.reconnects"] = float64(reconnects)
	if rig.timer != nil {
		rig.timer.mu.Lock()
		l["serve.batch_ms_p50"] = pct(rig.timer.samples["serve.batch"], 0.50)
		l["serve.batch_ms_p99"] = pct(rig.timer.samples["serve.batch"], 0.99)
		l["serve.watch_ms_p50"] = pct(rig.timer.samples["serve.watch"], 0.50)
		l["serve.rejects"] = float64(rig.timer.non2xx + rejects)
		rig.timer.mu.Unlock()
		l["wire.http_bytes_per_query"] = ratio(float64(rig.wires.bytes.Load()), float64(accepted))
	}

	// Correctness, outside the timed phase: one final frame per accepted
	// query, and the client's counts equal the server's /metrics.
	if finalFrames != accepted {
		out.problem("%d accepted queries but %d final frames", accepted, finalFrames)
	}
	mctx, mcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer mcancel()
	sm, err := rig.submit.Metrics(mctx)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if sm.QueriesSubmitted != int64(accepted) {
		out.problem("/metrics queries_submitted %d, client saw %d accepted", sm.QueriesSubmitted, accepted)
	}
	if sm.QueriesRejected != 0 || sm.QueriesShed != 0 || rejects != 0 {
		out.problem("/metrics rejected %d shed %d, client saw %d rejects", sm.QueriesRejected, sm.QueriesShed, rejects)
	}
	if sm.Answered != int64(answered) || sm.Answered+sm.Starved != int64(slotUpdates) {
		out.problem("/metrics answered %d starved %d, client saw %d answered of %d results", sm.Answered, sm.Starved, answered, slotUpdates)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		out.problem("the phases overran their deadline")
	}
	return out, nil
}
