package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	ps "repro"
)

// metroParams sizes the metro-oneshot workload: sharded-metro's fleet and
// demand shape (per shard per slot: points, k-redundancy multipoints and
// small aggregates inside the shard, plus one cross-shard aggregate and
// one cross-shard trajectory per slot).
type metroParams struct {
	sensors, shards        int
	points, multis, aggs   int
	warmup, replay, setups int
	loop                   loopParams
}

var (
	metroFull = metroParams{sensors: 40_000, shards: 4, points: 500, multis: 6, aggs: 2, warmup: 2, replay: 3, setups: 5,
		loop: loopParams{tail: 0.90, heapAt: 60}}
	metroTiny = metroParams{sensors: 2_000, shards: 4, points: 20, multis: 2, aggs: 1, warmup: 1, replay: 2, setups: 2,
		loop: loopParams{tail: 0.90, heapAt: 2}}
)

// metroDemand generates slot t's queries from the seed alone. With
// residentOnly the cross-shard tail is left out; the resident queries
// are the same either way.
func metroDemand(p metroParams, w *ps.World, seed uint64, t int, residentOnly bool) []ps.Spec {
	r := rand.New(rand.NewPCG(seed, uint64(t)))
	u := func(a, b float64) float64 { return a + (b-a)*r.Float64() }
	var specs []ps.Spec
	for q, box := range insetBoxes(w, p.shards, w.DMax+1) {
		for i := 0; i < p.points; i++ {
			specs = append(specs, ps.PointSpec{
				ID:     fmt.Sprintf("t%d-pt%d-%d", t, q, i),
				Loc:    ps.Pt(u(box.MinX, box.MaxX), u(box.MinY, box.MaxY)),
				Budget: 8 + u(0, 6),
			})
		}
		for i := 0; i < p.multis; i++ {
			specs = append(specs, ps.MultiPointSpec{
				ID:     fmt.Sprintf("t%d-mp%d-%d", t, q, i),
				Loc:    ps.Pt(u(box.MinX, box.MaxX), u(box.MinY, box.MaxY)),
				Budget: 100 + u(0, 150),
				K:      6,
			})
		}
		for i := 0; i < p.aggs; i++ {
			x, y := u(box.MinX, box.MaxX-10), u(box.MinY, box.MaxY-10)
			specs = append(specs, ps.AggregateSpec{
				ID:     fmt.Sprintf("t%d-agg%d-%d", t, q, i),
				Region: ps.NewRect(x, y, x+u(6, 10), y+u(6, 10)),
				Budget: 250 + u(0, 200),
			})
		}
	}
	if !residentOnly {
		c := w.Working.Center()
		specs = append(specs,
			ps.AggregateSpec{ID: fmt.Sprintf("t%d-span-agg", t), Region: ps.NewRect(c.X-8, c.Y-8, c.X+8, c.Y+8), Budget: 400},
			ps.TrajectorySpec{
				ID:     fmt.Sprintf("t%d-span-tr", t),
				Path:   ps.Trajectory{Waypoints: []ps.Point{ps.Pt(w.Working.MinX+10, c.Y+2), ps.Pt(w.Working.MaxX-10, c.Y+2)}},
				Budget: 150,
			})
	}
	return specs
}

func newMetro(p metroParams, seed uint64) (*ps.World, *ps.ShardedAggregator) {
	w := ps.NewRWMWorld(int64(seed), p.sensors, ps.SensorConfig{})
	return w, ps.NewShardedAggregator(w, p.shards, ps.WithGreedyStrategy(ps.StrategyLazy))
}

// submitAll submits specs outside any measurement; the correctness
// replays and warm-up slots use it.
func submitAll(b slotBackend, specs []ps.Spec) error {
	for _, s := range specs {
		if _, err := b.Submit(s); err != nil {
			return fmt.Errorf("submit %q: %w", s.QueryID(), err)
		}
	}
	return nil
}

// runMetro is the metro-oneshot workload: a closed loop in which one
// client submits a slot's one-shot demand to an in-process 4-shard
// ShardedAggregator, then runs the slot.
func runMetro(o options, tr *tracer) (*outcome, error) {
	p := metroFull
	if o.tiny {
		p = metroTiny
	}
	out := newOutcome()

	// Set-up: world, sharded aggregator and warm-up slots, several times;
	// the last instance is measured.
	var setups []float64
	var world *ps.World
	var sa *ps.ShardedAggregator
	var digests []uint64
	for i := 0; i < p.setups; i++ {
		runtime.GC() // time each set-up from a collected heap, not its predecessor's garbage
		start := time.Now()
		world, sa = newMetro(p, o.seed)
		var reps []*ps.SlotReport
		for t := 1; t <= p.warmup; t++ {
			if err := submitAll(sa, metroDemand(p, world, o.seed, t, false)); err != nil {
				return nil, err
			}
			reps = append(reps, sa.RunSlot())
		}
		setups = append(setups, time.Since(start).Seconds())
		digests = digests[:0]
		for _, rep := range reps {
			digests = append(digests, reportDigest(rep))
		}
	}
	out.e2e["setup_s"] = median(setups)

	acc := newSlotAcc(p.loop)
	heap := newHeapTrack()
	budgets := map[string]float64{}
	p0 := sampleProc()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for t := p.warmup + 1; time.Now().Before(deadline) || acc.slots < 2; t++ {
		specs := metroDemand(p, world, o.seed, t, false)
		clear(budgets)
		for _, s := range specs {
			budgets[s.QueryID()] = budgetOf(s)
		}
		submitted := make([]time.Time, len(specs))
		key := fmt.Sprint(t)

		cycleStart := time.Now()
		slotSpan := tr.open("slot", key, 0, cycleStart)
		for i, s := range specs {
			submitted[i] = time.Now()
			_, err := sa.Submit(s)
			if tr != nil {
				end := time.Now()
				acc.submitUs = append(acc.submitUs, float64(end.Sub(submitted[i]).Nanoseconds())/1e3)
				tr.add("ps.Submit", s.QueryID(), slotSpan, submitted[i], end)
			}
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("slot %d: submit %q: %v", t, s.QueryID(), err)
			}
		}
		rep, end := runTimedSlot(out, tr, sa, t, slotSpan)
		acc.cycles = append(acc.cycles, ms(end.Sub(cycleStart)))
		for i, s := range specs {
			acc.finals = append(acc.finals, ms(end.Sub(submitted[i])))
			if rep.Answered(s.QueryID()) {
				acc.answered++
			}
		}
		acc.queries += len(specs)
		acc.addReport(rep)
		checkPayments(out, rep, budgets)
		if t <= p.warmup+p.replay {
			digests = append(digests, reportDigest(rep))
		}
		heap.observe(t)
		acc.heapCheckpoint(out.e2e)
	}
	wall := time.Since(start)
	p1 := sampleProc()
	acc.endToEnd(out.e2e, wall)
	acc.layers(out.layer)
	procMetrics(out.layer, p0, p1, acc.slots, acc.queries, heap)

	if err := metroChecks(out, p, o.seed, digests); err != nil {
		return nil, err
	}
	out.e2e["ok_frac"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	return out, nil
}

// metroChecks runs the correctness checks outside the timed phase:
//   - determinism: a fresh instance replaying the same slots reproduces
//     the measured run's SlotReports exactly;
//   - equivalence: on the resident demand alone (the sharded layer's
//     exactness contract; cross-shard queries are served approximately by
//     design), the sharded aggregator's SlotReports equal an unsharded
//     ps.Aggregator's exactly, slot for slot.
func metroChecks(out *outcome, p metroParams, seed uint64, digests []uint64) error {
	world, sa := newMetro(p, seed)
	for i, want := range digests {
		t := i + 1
		if err := submitAll(sa, metroDemand(p, world, seed, t, false)); err != nil {
			return err
		}
		if got := reportDigest(sa.RunSlot()); got != want {
			out.problem("determinism: slot %d replays to a different SlotReport", t)
		}
	}

	world, sa = newMetro(p, seed)
	plainWorld := ps.NewRWMWorld(int64(seed), p.sensors, ps.SensorConfig{})
	plain := ps.NewAggregator(plainWorld, ps.WithScheduling(ps.SchedulingGreedy), ps.WithGreedyStrategy(ps.StrategyLazy))
	for t := 1; t <= p.replay; t++ {
		specs := metroDemand(p, world, seed, t, true)
		if err := submitAll(sa, specs); err != nil {
			return err
		}
		if err := submitAll(plain, specs); err != nil {
			return err
		}
		s, u := sa.RunSlot(), plain.RunSlot()
		if reportDigest(s) != reportDigest(u) {
			out.problem("equivalence: slot %d: sharded welfare %v vs unsharded %v (reports differ)", t, s.Welfare, u.Welfare)
		}
	}
	return nil
}
