package main

// The streaming-fanout scenario: the push-delivery benchmark. Unlike the
// slot-pipeline scenarios (scenarios.go) it exercises the entire serving
// stack — engine hub, serve /watch streams, psclient Stream — end to
// end over real HTTP: thousands of one-shot queries are batch-submitted
// against a real-clock engine while a fixed pool of concurrent watchers
// each follows one query's event stream at a time. No status poll is
// ever issued (a counting middleware proves it), and the run is gated on
// the p95 event-delivery latency — publish timestamp to watcher receive
// — staying within one slot interval.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/internal/rng"
	"repro/psclient"
	"repro/serve"
	"repro/wire"
)

// streamScenario is one named push-delivery workload.
type streamScenario struct {
	Name     string
	Desc     string
	Seed     int64
	Sensors  int
	Interval time.Duration // slot interval; also the delivery-latency gate
	Queries  int           // total one-shot point queries
	PerSlot  int           // submission pacing target per interval
	Batch    int           // specs per SubmitBatch request
	Watchers int           // concurrent watcher goroutines
}

var streamScenarios = []streamScenario{
	{
		Name: "streaming-fanout",
		Desc: "10k point queries batch-submitted against a 100ms slot clock, pushed to 1k concurrent watchers over HTTP event streams; zero polls; p95 delivery gated at one slot",
		Seed: 17, Sensors: 1000,
		Interval: 100 * time.Millisecond,
		Queries:  10_000, PerSlot: 500, Batch: 100,
		Watchers: 1000,
	},
}

func streamScenarioByName(name string) (streamScenario, bool) {
	for _, sc := range streamScenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return streamScenario{}, false
}

// streamBenchResult is the machine-readable record of one streaming
// scenario run (BENCH_<scenario>.json). Delivery latencies depend on the
// machine; the zero-poll property and the completion counts do not.
type streamBenchResult struct {
	Scenario       string  `json:"scenario"`
	Description    string  `json:"description"`
	Seed           int64   `json:"seed"`
	Sensors        int     `json:"sensors"`
	Queries        int     `json:"queries"`
	Watchers       int     `json:"watchers"`
	Batch          int     `json:"batch"`
	SlotIntervalMs float64 `json:"slot_interval_ms"`
	// Request accounting from the counting middleware: push-based
	// delivery means PollRequests stays exactly 0.
	PollRequests  int64 `json:"poll_requests"`
	WatchRequests int64 `json:"watch_requests"`
	BatchRequests int64 `json:"batch_requests"`
	// Completion: every query observed to its terminal frame.
	FinalsObserved int64 `json:"finals_observed"`
	// Delivery latency (publish -> watcher receive) over live-pushed
	// frames; the gate is DeliveryMsP95 <= SlotIntervalMs.
	DeliverySamples int64   `json:"delivery_samples"`
	DeliveryMsP50   float64 `json:"delivery_ms_p50"`
	DeliveryMsP95   float64 `json:"delivery_ms_p95"`
	DeliveryMsMax   float64 `json:"delivery_ms_max"`
	// Engine-side event accounting.
	EventsDelivered int64   `json:"events_delivered"`
	EventsDropped   int64   `json:"events_dropped"`
	GapEvents       int64   `json:"gap_events"`
	SlotMsAvg       float64 `json:"slot_ms_avg"`
	Slots           int     `json:"slots"`
	WallS           float64 `json:"wall_s"`
	GoVersion       string  `json:"go_version"`
}

// countingMux counts requests by route class before delegating.
type countingMux struct {
	next    http.Handler
	polls   atomic.Int64
	watches atomic.Int64
	batches atomic.Int64
}

func (m *countingMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/query/"):
		m.polls.Add(1)
	case r.URL.Path == "/watch":
		m.watches.Add(1)
	case r.URL.Path == "/queries:batch":
		m.batches.Add(1)
	}
	m.next.ServeHTTP(w, r)
}

// runStreamScenario executes one streaming scenario and returns its
// record plus the process exit code contribution (0 ok, 1 gate failed).
func runStreamScenario(sc streamScenario, queriesOverride int) (streamBenchResult, int) {
	world := ps.NewRWMWorld(sc.Seed, sc.Sensors, ps.SensorConfig{})
	// The serving configuration: the greedy Algorithm 5 pipeline for
	// point-only slots too — the paper's exact BILP point policy is
	// quadratic-ish in per-slot demand and cannot hold a 100ms slot at
	// this arrival rate.
	eng := ps.NewEngine(
		ps.NewAggregator(world, ps.WithScheduling(ps.SchedulingGreedy)),
		ps.WithSlotInterval(sc.Interval),
		ps.WithQueueSize(4*sc.PerSlot),
		ps.WithBlockingSubmit(),
	)
	eng.Start()
	api := serve.New(eng, world, serve.Options{})
	mux := &countingMux{next: api.Handler()}
	ts := httptest.NewServer(mux)
	defer func() {
		ts.Close()
		eng.Stop()
	}()

	queries := sc.Queries
	if queriesOverride > 0 {
		queries = queriesOverride
	}
	client, err := psclient.Dial(ts.URL, psclient.WithRetry(8, 20*time.Millisecond),
		psclient.WithHTTPClient(&http.Client{Transport: &http.Transport{
			MaxIdleConns:        sc.Watchers,
			MaxIdleConnsPerHost: sc.Watchers,
		}}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		return streamBenchResult{}, 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	var (
		ids        = make(chan string, queries)
		finals     atomic.Int64
		latMu      sync.Mutex
		latencies  []float64
		watcherErr atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		watcherErr.CompareAndSwap(nil, &msg)
		cancel()
	}

	// Watcher pool: each goroutine follows one query's event stream at a
	// time to its terminal frame, measuring publish->receive latency for
	// every frame pushed after it attached (replayed history is resume
	// semantics, not push latency).
	var watchers sync.WaitGroup
	for w := 0; w < sc.Watchers; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			local := make([]float64, 0, 64)
			for id := range ids {
				attached := time.Now().UnixNano()
				st := client.Stream(id)
				for {
					ev, err := st.Next(ctx)
					if err != nil {
						fail("watch %s: %v", id, err)
						st.Close()
						return
					}
					if ev.TS >= attached {
						local = append(local, float64(time.Now().UnixNano()-ev.TS)/1e6)
					}
					if ev.Terminal() {
						if ev.Event != wire.FrameFinal {
							fail("watch %s: terminal %s (%s)", id, ev.Event, ev.Error)
							st.Close()
							return
						}
						finals.Add(1)
						break
					}
				}
				st.Close()
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}()
	}

	// Submitter: sc.PerSlot queries per interval, in SubmitBatch chunks.
	rnd := rng.New(sc.Seed, "psbench-"+sc.Name)
	wk := world.Working
	start := time.Now()
	submitErr := func() error {
		batchesPerSlot := (sc.PerSlot + sc.Batch - 1) / sc.Batch
		tick := time.NewTicker(sc.Interval / time.Duration(batchesPerSlot))
		defer tick.Stop()
		for submitted := 0; submitted < queries; {
			n := min(sc.Batch, queries-submitted)
			specs := make([]ps.Spec, 0, n)
			for i := 0; i < n; i++ {
				specs = append(specs, ps.PointSpec{
					ID:     fmt.Sprintf("sf-%d", submitted+i),
					Loc:    ps.Pt(rnd.Uniform(wk.MinX, wk.MaxX), rnd.Uniform(wk.MinY, wk.MaxY)),
					Budget: 8 + rnd.Uniform(0, 10),
				})
			}
			verdicts, err := client.SubmitBatch(ctx, specs)
			if err != nil {
				return err
			}
			for _, v := range verdicts {
				if v.Status != "accepted" {
					return fmt.Errorf("batch rejected %q: %s (%s)", v.ID, v.Error, v.Code)
				}
				ids <- v.ID
			}
			submitted += n
			select {
			case <-tick.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}()
	close(ids)
	if submitErr != nil {
		fmt.Fprintln(os.Stderr, "psbench: streaming submit:", submitErr)
		return streamBenchResult{}, 1
	}
	watchers.Wait()
	wall := time.Since(start)
	if msg := watcherErr.Load(); msg != nil {
		fmt.Fprintln(os.Stderr, "psbench: streaming watcher:", *msg)
		return streamBenchResult{}, 1
	}

	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p*float64(len(latencies))) - 1
		return latencies[max(0, min(i, len(latencies)-1))]
	}
	m := eng.Metrics()
	res := streamBenchResult{
		Scenario:        sc.Name,
		Description:     sc.Desc,
		Seed:            sc.Seed,
		Sensors:         sc.Sensors,
		Queries:         queries,
		Watchers:        sc.Watchers,
		Batch:           sc.Batch,
		SlotIntervalMs:  float64(sc.Interval.Nanoseconds()) / 1e6,
		PollRequests:    mux.polls.Load(),
		WatchRequests:   mux.watches.Load(),
		BatchRequests:   mux.batches.Load(),
		FinalsObserved:  finals.Load(),
		DeliverySamples: int64(len(latencies)),
		DeliveryMsP50:   pct(0.50),
		DeliveryMsP95:   pct(0.95),
		DeliveryMsMax:   pct(1.0),
		EventsDelivered: m.EventsDelivered,
		EventsDropped:   m.EventsDropped,
		GapEvents:       m.GapEvents,
		SlotMsAvg:       float64(m.SlotLatencyAvg.Nanoseconds()) / 1e6,
		Slots:           m.Slots,
		WallS:           wall.Seconds(),
		GoVersion:       runtime.Version(),
	}

	exit := 0
	if res.FinalsObserved != int64(queries) {
		fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: %d of %d queries observed to their final frame\n",
			sc.Name, res.FinalsObserved, queries)
		exit = 1
	}
	if res.PollRequests != 0 {
		fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: %d poll requests issued; push delivery must need zero\n",
			sc.Name, res.PollRequests)
		exit = 1
	}
	if res.DeliveryMsP95 > res.SlotIntervalMs {
		fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: p95 event-delivery latency %.2fms exceeds one slot (%.0fms)\n",
			sc.Name, res.DeliveryMsP95, res.SlotIntervalMs)
		exit = 1
	}
	return res, exit
}

// runStreamScenarioMode prints, records and gates one streaming
// scenario; it mirrors runScenarioMode's contract.
func runStreamScenarioMode(sc streamScenario, queriesOverride int, emitJSON bool, outDir string) int {
	start := time.Now()
	res, exit := runStreamScenario(sc, queriesOverride)
	if res.Scenario == "" {
		return 1
	}
	fmt.Printf("== %s (%d sensors, %v slots, %d watchers) — %s\n",
		res.Scenario, res.Sensors, sc.Interval, res.Watchers, sc.Desc)
	fmt.Printf("%-26s %d queries, %d finals observed, %d watch streams, %d batch posts, %d polls\n",
		"completion:", res.Queries, res.FinalsObserved, res.WatchRequests, res.BatchRequests, res.PollRequests)
	fmt.Printf("%-26s p50 %.2fms  p95 %.2fms  max %.2fms over %d live frames (gate: p95 <= %.0fms)\n",
		"delivery latency:", res.DeliveryMsP50, res.DeliveryMsP95, res.DeliveryMsMax, res.DeliverySamples, res.SlotIntervalMs)
	fmt.Printf("%-26s %d delivered, %d dropped (%d gap frames), slot avg %.2fms over %d slots\n",
		"events:", res.EventsDelivered, res.EventsDropped, res.GapEvents, res.SlotMsAvg, res.Slots)
	fmt.Printf("%-26s %.1fs wall\n", "duration:", res.WallS)

	if emitJSON {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		path := filepath.Join(outDir, benchFileName(res.Scenario))
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		fmt.Printf("%-26s %s\n", "json:", path)
	}
	fmt.Printf("-- %s done in %v\n\n", res.Scenario, time.Since(start).Round(time.Millisecond))
	return exit
}
