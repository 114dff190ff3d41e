package main

// The reproducible perf harness: named scenarios with fixed seeds and
// fixed workload schedules, run through the Aggregator. Each run records slot-latency
// percentiles, the greedy core's valuation-call instrumentation, welfare
// and allocation counts; -json writes one machine-readable
// BENCH_<scenario>.json per scenario so the perf trajectory of the repo
// is tracked in CI (see .github/workflows/ci.yml's bench job).
//
// Latency gates compare against a checked-in baseline (bench/) after
// normalizing by a fixed CPU calibration loop, so a slower CI runner
// does not read as a regression. Valuation calls, welfare and
// allocations are machine-independent for a fixed seed and are reported
// for drift inspection.

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ps "repro"
	"repro/cluster"
	"repro/internal/rng"
)

// scenario is one named, fixed-seed workload.
type scenario struct {
	Name    string
	Desc    string
	Seed    int64
	Sensors int
	Slots   int
	// Shards > 1 runs the scenario on the geo-sharded execution layer.
	// Scenario mode then also runs the unsharded configuration first and
	// gates on the p50 slot-latency speedup (minShardedSpeedup).
	Shards int
	// Cluster runs the sharded layer through the multi-node coordinator:
	// one in-process psnode server per shard on a loopback socket, every
	// partial JSON-framed across TCP. Results stay bit-identical to the
	// in-process sharded run (the cluster's reconciliation contract), so
	// the deterministic fields still guard drift; the speedup gate is
	// waived because loopback RPC overhead is what the scenario measures.
	Cluster bool
	// TargetP50Ms, when > 0, gates the run on an absolute p50 slot
	// latency after normalizing this machine's speed to the reference
	// machine via the calibration loop (see targetRefCalibrationMs).
	// Unlike the baseline-relative gate this one cannot ratchet: it
	// encodes the latency budget the scenario was designed to meet.
	TargetP50Ms float64
	// setup submits long-lived (continuous) queries before slot 0.
	setup func(r *scenarioRun)
	// slot submits one slot's one-shot queries.
	slot func(r *scenarioRun, t int)
}

// slotBackend is the execution surface a scenario drives: the unsharded
// ps.Aggregator or the geo-sharded ps.ShardedAggregator.
type slotBackend interface {
	Submit(ps.Spec) (ps.SubmittedQuery, error)
	RunSlot() *ps.SlotReport
}

// scenarioRun is the mutable state while a scenario executes.
type scenarioRun struct {
	sc         scenario
	world      *ps.World
	agg        slotBackend
	rnd        *rng.Stream
	oneShots   []string // IDs submitted for the current slot
	continuous []string // IDs of live continuous queries
	submitted  int
}

func (r *scenarioRun) id(prefix string, t, i int) string {
	return fmt.Sprintf("%s-%s%d-%d", r.sc.Name, prefix, t, i)
}

// submit routes every scenario submission through the unified QuerySpec
// API; a rejected spec is a bug in the scenario definition.
func (r *scenarioRun) submit(spec ps.Spec, oneShot bool) {
	sq, err := r.agg.Submit(spec)
	if err != nil {
		panic(fmt.Sprintf("psbench: scenario %s: %v", r.sc.Name, err))
	}
	if oneShot {
		r.oneShots = append(r.oneShots, sq.ID)
	} else {
		r.continuous = append(r.continuous, sq.ID)
	}
	r.submitted++
}

func (r *scenarioRun) point(t, i int, budget float64) {
	w := r.world.Working
	r.submit(ps.PointSpec{
		ID:     r.id("pt", t, i),
		Loc:    ps.Pt(r.rnd.Uniform(w.MinX, w.MaxX), r.rnd.Uniform(w.MinY, w.MaxY)),
		Budget: budget,
	}, true)
}

func (r *scenarioRun) multiPoint(t, i int, budget float64, k int) {
	w := r.world.Working
	r.submit(ps.MultiPointSpec{
		ID:     r.id("mp", t, i),
		Loc:    ps.Pt(r.rnd.Uniform(w.MinX, w.MaxX), r.rnd.Uniform(w.MinY, w.MaxY)),
		Budget: budget,
		K:      k,
	}, true)
}

func (r *scenarioRun) aggregate(t, i int, budget, minDim, maxDim float64) {
	w := r.world.Working
	x := r.rnd.Uniform(w.MinX, w.MaxX-maxDim)
	y := r.rnd.Uniform(w.MinY, w.MaxY-maxDim)
	r.submit(ps.AggregateSpec{
		ID:     r.id("agg", t, i),
		Region: ps.NewRect(x, y, x+r.rnd.Uniform(minDim, maxDim), y+r.rnd.Uniform(minDim, maxDim)),
		Budget: budget,
	}, true)
}

// pointIn submits a point query placed inside box (sharded-metro keeps
// demand shard-resident by drawing from each shard's interior).
func (r *scenarioRun) pointIn(box ps.Rect, t, i int, budget float64) {
	r.submit(ps.PointSpec{
		ID:     r.id("pt", t, i),
		Loc:    ps.Pt(r.rnd.Uniform(box.MinX, box.MaxX), r.rnd.Uniform(box.MinY, box.MaxY)),
		Budget: budget,
	}, true)
}

func (r *scenarioRun) multiPointIn(box ps.Rect, t, i int, budget float64, k int) {
	r.submit(ps.MultiPointSpec{
		ID:     r.id("mp", t, i),
		Loc:    ps.Pt(r.rnd.Uniform(box.MinX, box.MaxX), r.rnd.Uniform(box.MinY, box.MaxY)),
		Budget: budget,
		K:      k,
	}, true)
}

func (r *scenarioRun) aggregateIn(box ps.Rect, t, i int, budget, minDim, maxDim float64) {
	x := r.rnd.Uniform(box.MinX, box.MaxX-maxDim)
	y := r.rnd.Uniform(box.MinY, box.MaxY-maxDim)
	r.submit(ps.AggregateSpec{
		ID:     r.id("agg", t, i),
		Region: ps.NewRect(x, y, x+r.rnd.Uniform(minDim, maxDim), y+r.rnd.Uniform(minDim, maxDim)),
		Budget: budget,
	}, true)
}

func (r *scenarioRun) trajectory(t, i int, budget float64) {
	w := r.world.Working
	x, y := r.rnd.Uniform(w.MinX, w.MaxX-20), r.rnd.Uniform(w.MinY, w.MaxY-20)
	tr := ps.Trajectory{Waypoints: []ps.Point{
		ps.Pt(x, y),
		ps.Pt(x+r.rnd.Uniform(5, 20), y+r.rnd.Uniform(5, 20)),
	}}
	r.submit(ps.TrajectorySpec{ID: r.id("tr", t, i), Path: tr, Budget: budget}, true)
}

// scenarios is the pinned scenario registry. Workload sizes are chosen
// so the whole suite finishes within a few minutes on a 2-core CI
// runner; seeds and schedules must stay fixed — BENCH_*.json numbers
// are only comparable across runs of identical scenarios.
var scenarios = []scenario{
	{
		Name:    "dense-urban",
		Desc:    "big fleet, heavy mixed demand: 250 points + 20 k-redundancy multipoints + 8 aggregates per slot",
		Seed:    11,
		Sensors: 4000,
		Slots:   12,
		slot: func(r *scenarioRun, t int) {
			for i := 0; i < 250; i++ {
				r.point(t, i, 10+r.rnd.Uniform(0, 20))
			}
			for i := 0; i < 20; i++ {
				r.multiPoint(t, i, 100+r.rnd.Uniform(0, 150), 8)
			}
			for i := 0; i < 8; i++ {
				r.aggregate(t, i, 200+r.rnd.Uniform(0, 200), 10, 25)
			}
		},
	},
	{
		Name:    "sparse-rural",
		Desc:    "small fleet, thin demand: 40 points + 2 aggregates per slot",
		Seed:    12,
		Sensors: 250,
		Slots:   20,
		slot: func(r *scenarioRun, t int) {
			for i := 0; i < 40; i++ {
				r.point(t, i, 10+r.rnd.Uniform(0, 20))
			}
			for i := 0; i < 2; i++ {
				r.aggregate(t, i, 150+r.rnd.Uniform(0, 150), 15, 35)
			}
		},
	},
	{
		Name:    "bursty-arrival",
		Desc:    "quiet baseline with 500-query bursts every 6th slot",
		Seed:    13,
		Sensors: 1500,
		Slots:   24,
		slot: func(r *scenarioRun, t int) {
			n, aggs := 30, 0
			if t%6 == 0 {
				n, aggs = 500, 6
			}
			for i := 0; i < n; i++ {
				r.point(t, i, 10+r.rnd.Uniform(0, 20))
			}
			for i := 0; i < aggs; i++ {
				r.aggregate(t, i, 200+r.rnd.Uniform(0, 200), 10, 25)
			}
		},
	},
	{
		Name: "sharded-metro",
		Desc: "40k-sensor dense city on 4 geographic shards: quadrant-local points, k-redundancy multipoints and aggregates, plus a little cross-shard demand for the spanning pass",
		Seed: 15,
		// 40k sensors and ~2k queries/slot make the per-round candidate
		// scan of the greedy core the bottleneck; the 4-way partition cuts
		// that scan ~4x serially, plus shard parallelism on multi-core
		// machines.
		Sensors:     40_000,
		Slots:       4,
		Shards:      4,
		TargetP50Ms: 100,
		slot: func(r *scenarioRun, t int) {
			// Interior boxes of the four shards of the RWM working region
			// (15..65, split at 40), inset by dmax+1 so every footprint is
			// shard-resident.
			quads := []ps.Rect{
				ps.NewRect(21, 21, 34, 34),
				ps.NewRect(46, 21, 59, 34),
				ps.NewRect(21, 46, 34, 59),
				ps.NewRect(46, 46, 59, 59),
			}
			for q, box := range quads {
				for i := 0; i < 500; i++ {
					r.pointIn(box, t, q*1000+i, 8+r.rnd.Uniform(0, 6))
				}
				for i := 0; i < 6; i++ {
					r.multiPointIn(box, t, q*1000+i, 100+r.rnd.Uniform(0, 150), 6)
				}
				for i := 0; i < 2; i++ {
					r.aggregateIn(box, t, q*1000+i, 250+r.rnd.Uniform(0, 200), 6, 10)
				}
			}
			// Cross-shard tail: one center aggregate and one border-crossing
			// trajectory exercise the spanning pass every slot.
			r.submit(ps.AggregateSpec{
				ID:     r.id("span-agg", t, 0),
				Region: ps.NewRect(32, 32, 48, 48),
				Budget: 400,
			}, true)
			r.submit(ps.TrajectorySpec{
				ID:     r.id("span-tr", t, 0),
				Path:   ps.Trajectory{Waypoints: []ps.Point{ps.Pt(25, 42), ps.Pt(55, 42)}},
				Budget: 150,
			}, true)
		},
	},
	{
		Name: "cluster-metro",
		Desc: "20k-sensor city on a 4-node loopback cluster: quadrant-local points, multipoints and aggregates plus a cross-shard tail, every partial JSON-framed over TCP",
		Seed: 16,
		// The workload mirrors sharded-metro at half the fleet so the
		// cluster suite stays inside the CI budget; what this scenario
		// adds over sharded-metro is the wire: world-replica lockstep on
		// four node servers, NDJSON partials over loopback TCP, and the
		// trace-replay merge back on the coordinator. The deterministic
		// fields (welfare, valuation calls, answered counts) must match an
		// in-process sharded run bit for bit — the cluster golden tests
		// pin that — so any drift here is reconciliation drift.
		Sensors: 20_000,
		Slots:   4,
		Shards:  4,
		Cluster: true,
		slot: func(r *scenarioRun, t int) {
			quads := []ps.Rect{
				ps.NewRect(21, 21, 34, 34),
				ps.NewRect(46, 21, 59, 34),
				ps.NewRect(21, 46, 34, 59),
				ps.NewRect(46, 46, 59, 59),
			}
			for q, box := range quads {
				for i := 0; i < 250; i++ {
					r.pointIn(box, t, q*1000+i, 8+r.rnd.Uniform(0, 6))
				}
				for i := 0; i < 4; i++ {
					r.multiPointIn(box, t, q*1000+i, 100+r.rnd.Uniform(0, 150), 6)
				}
				for i := 0; i < 2; i++ {
					r.aggregateIn(box, t, q*1000+i, 250+r.rnd.Uniform(0, 200), 6, 10)
				}
			}
			// Cross-shard tail: the spanning pass runs centrally on the
			// coordinator even in cluster mode, and its selections ride the
			// same per-slot commit to every node replica.
			r.submit(ps.AggregateSpec{
				ID:     r.id("span-agg", t, 0),
				Region: ps.NewRect(32, 32, 48, 48),
				Budget: 400,
			}, true)
			r.submit(ps.TrajectorySpec{
				ID:     r.id("span-tr", t, 0),
				Path:   ps.Trajectory{Waypoints: []ps.Point{ps.Pt(25, 42), ps.Pt(55, 42)}},
				Budget: 150,
			}, true)
		},
	},
	{
		Name:    "continuous-heavy",
		Desc:    "monitoring-dominated: 20 locmon + 8 event + 4 region-event continuous queries over light one-shot traffic",
		Seed:    14,
		Sensors: 1000,
		Slots:   20,
		setup: func(r *scenarioRun) {
			w := r.world.Working
			for i := 0; i < 20; i++ {
				r.submit(ps.LocationMonitoringSpec{
					ID:       fmt.Sprintf("%s-lm-%d", r.sc.Name, i),
					Loc:      ps.Pt(r.rnd.Uniform(w.MinX, w.MaxX), r.rnd.Uniform(w.MinY, w.MaxY)),
					Duration: r.sc.Slots,
					Budget:   150,
					Samples:  6,
				}, false)
			}
			for i := 0; i < 8; i++ {
				r.submit(ps.EventDetectionSpec{
					ID:            fmt.Sprintf("%s-ev-%d", r.sc.Name, i),
					Loc:           ps.Pt(r.rnd.Uniform(w.MinX, w.MaxX), r.rnd.Uniform(w.MinY, w.MaxY)),
					Duration:      r.sc.Slots,
					Threshold:     0.7,
					Confidence:    0.8,
					BudgetPerSlot: 40,
				}, false)
			}
			for i := 0; i < 4; i++ {
				x := r.rnd.Uniform(w.MinX, w.MaxX-20)
				y := r.rnd.Uniform(w.MinY, w.MaxY-20)
				r.submit(ps.RegionEventSpec{
					ID:            fmt.Sprintf("%s-re-%d", r.sc.Name, i),
					Region:        ps.NewRect(x, y, x+15, y+15),
					Duration:      r.sc.Slots,
					Threshold:     0.7,
					Confidence:    0.6,
					BudgetPerSlot: 80,
				}, false)
			}
		},
		slot: func(r *scenarioRun, t int) {
			for i := 0; i < 40; i++ {
				r.point(t, i, 10+r.rnd.Uniform(0, 20))
			}
			for i := 0; i < 5; i++ {
				r.multiPoint(t, i, 60+r.rnd.Uniform(0, 80), 5)
			}
			for i := 0; i < 3; i++ {
				r.trajectory(t, i, 50+r.rnd.Uniform(0, 50))
			}
		},
	},
}

func scenarioByName(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// benchResult is the machine-readable record of one scenario run
// (BENCH_<scenario>.json). Latency fields depend on the machine;
// valuation counts, welfare and allocation counts are deterministic for
// a fixed seed and scenario.
type benchResult struct {
	Scenario    string  `json:"scenario"`
	Description string  `json:"description"`
	Seed        int64   `json:"seed"`
	Sensors     int     `json:"sensors"`
	Slots       int     `json:"slots"`
	Shards      int     `json:"shards"`
	Submitted   int     `json:"queries_submitted"`
	Answered    int     `json:"query_slots_answered"`
	SlotMsP50   float64 `json:"slot_ms_p50"`
	SlotMsP95   float64 `json:"slot_ms_p95"`
	SlotMsMax   float64 `json:"slot_ms_max"`
	SlotMsMean  float64 `json:"slot_ms_mean"`
	// SlotStages breaks the slot latency into the aggregator's pipeline
	// stages (offer gather, selection, commit, ... — see ps.SlotReport),
	// in pipeline order. Stage timings are machine-dependent like the
	// slot latencies above; the stage names and count are deterministic.
	SlotStages []stageBreakdown `json:"slot_stages,omitempty"`
	// CriticalPathP50Ms/P95Ms are the slot-latency percentiles with the
	// shard lanes' serialization removed: per slot, wall time minus
	// (sum of lane select times - slowest lane). Lanes run concurrently
	// and share no mutable state, so this is the slot latency of a
	// deployment with at least one core per lane; on such machines it
	// coincides with the wall percentiles, while on a smaller runner the
	// wall clock additionally pays for time-slicing the lanes. Computed
	// from measured per-lane timings (ShardStats.SelectMs), not a model.
	CriticalPathP50Ms float64 `json:"critical_path_p50_ms,omitempty"`
	CriticalPathP95Ms float64 `json:"critical_path_p95_ms,omitempty"`
	// Sharded scenarios also record the same-machine unsharded run they
	// were gated against. SpeedupP50 is the wall-clock ratio (machine- and
	// core-count-dependent); LaneSpeedupP50 is the unsharded p50 over the
	// sharded critical-path p50 — the speedup once every lane has its own
	// core — which is a work ratio and transfers across machines.
	UnshardedP50Ms float64 `json:"unsharded_p50_ms,omitempty"`
	SpeedupP50     float64 `json:"speedup_p50,omitempty"`
	LaneSpeedupP50 float64 `json:"lane_speedup_p50,omitempty"`
	// Scenarios with an absolute latency budget also record the budget
	// and the calibration-normalized p50 the gate compared against it
	// (raw p50 scaled to the reference machine, see targetRefCalibrationMs).
	TargetP50Ms     float64 `json:"target_p50_ms,omitempty"`
	NormalizedP50Ms float64 `json:"normalized_p50_ms,omitempty"`
	// CalibrationMs is the wall time of a fixed single-core CPU loop on
	// this machine; latency gates compare p50/calibration ratios so the
	// baseline transfers across machines.
	CalibrationMs           float64 `json:"calibration_ms"`
	ValuationCalls          int64   `json:"valuation_calls"`
	ExhaustiveEquivCalls    int64   `json:"exhaustive_equiv_calls"`
	ValuationCallsSaved     int64   `json:"valuation_calls_saved"`
	LazyReevaluations       int64   `json:"lazy_reevaluations"`
	SubmodularityViolations int64   `json:"submodularity_violations"`
	FallbackRescans         int64   `json:"fallback_rescans"`
	GeomCacheHits           int64   `json:"geom_cache_hits"`
	GeomCacheLookups        int64   `json:"geom_cache_lookups"`
	PosteriorAppends        int64   `json:"posterior_appends"`
	PosteriorRebuilds       int64   `json:"posterior_rebuilds"`
	Welfare                 float64 `json:"welfare"`
	TotalCost               float64 `json:"total_cost"`
	Allocs                  uint64  `json:"allocs"`
	AllocBytes              uint64  `json:"alloc_bytes"`
	GoVersion               string  `json:"go_version"`

	// stageSumViolation records the first slot whose stage timings summed
	// past the measured slot latency — the stages are sub-intervals of the
	// RunSlot window, so that can only happen if the trace double-counts.
	// Checked by runScenarioMode; not part of the JSON record.
	stageSumViolation string
}

// stageBreakdown is one pipeline stage's latency percentiles across a
// scenario's slots.
type stageBreakdown struct {
	Stage  string  `json:"stage"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// pctOf reads percentile p (0..1] from an ascending-sorted sample set.
func pctOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// stageSumTolerance absorbs clock-granularity noise when comparing a
// slot's stage-timing sum against the slot latency that encloses it:
// 2% relative plus 50µs absolute.
func stageSumSlack(latencyMs float64) float64 {
	return latencyMs*0.02 + 0.05
}

// calibrationSink defeats dead-code elimination of the calibration loop.
var calibrationSink uint64

// calibrate times a fixed xorshift loop — a deterministic single-core
// workload whose wall time tracks the machine's scalar speed.
func calibrate() float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// runScenario executes one scenario with the given shard count (shards
// <= 1 is the unsharded aggregator) and returns its record.
func runScenario(sc scenario, slotsOverride int, seedOverride int64, shards int) benchResult {
	if slotsOverride > 0 {
		sc.Slots = slotsOverride
	}
	if seedOverride != 0 {
		sc.Seed = seedOverride
	}
	if shards < 1 {
		shards = 1
	}
	r := &scenarioRun{
		sc:  sc,
		rnd: rng.New(sc.Seed, "psbench-"+sc.Name),
	}
	switch {
	case sc.Cluster && shards > 1:
		// Cluster mode: one in-process node server per shard behind a real
		// loopback TCP socket, so the measured slot latency includes frame
		// encode/decode and the RPC round trips.
		agg, world, cleanup := startClusterBackend(sc, shards)
		defer cleanup()
		r.agg, r.world = agg, world
	case shards > 1:
		r.world = ps.NewRWMWorld(sc.Seed, sc.Sensors, ps.SensorConfig{})
		r.agg = ps.NewShardedAggregator(r.world, shards)
	default:
		r.world = ps.NewRWMWorld(sc.Seed, sc.Sensors, ps.SensorConfig{})
		r.agg = ps.NewAggregator(r.world)
	}
	if sc.setup != nil {
		sc.setup(r)
	}

	var stats ps.SelectionStats
	var welfare, totalCost float64
	var answered int
	latencies := make([]float64, 0, sc.Slots)
	criticals := make([]float64, 0, sc.Slots)
	var stageOrder []string
	stageMs := make(map[string][]float64)
	var stageViolation string

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for t := 0; t < sc.Slots; t++ {
		r.oneShots = r.oneShots[:0]
		if sc.slot != nil {
			sc.slot(r, t)
		}
		start := time.Now()
		rep := r.agg.RunSlot()
		lat := float64(time.Since(start).Nanoseconds()) / 1e6
		latencies = append(latencies, lat)
		// Critical path: subtract the shard lanes' serialization (they run
		// concurrently given enough cores), keeping the slowest lane and
		// every sequential stage. Unsharded runs have no lanes: crit == lat.
		var laneSum, laneMax float64
		for _, sh := range rep.Shards {
			if sh.Spanning {
				continue
			}
			laneSum += sh.SelectMs
			laneMax = math.Max(laneMax, sh.SelectMs)
		}
		crit := lat
		if laneSum > 0 {
			crit = math.Max(lat-laneSum+laneMax, laneMax)
		}
		criticals = append(criticals, crit)
		var sumMs float64
		for _, sp := range rep.Stages {
			ms := float64(sp.Duration.Nanoseconds()) / 1e6
			if _, seen := stageMs[sp.Stage]; !seen {
				stageOrder = append(stageOrder, sp.Stage)
			}
			stageMs[sp.Stage] = append(stageMs[sp.Stage], ms)
			sumMs += ms
		}
		if stageViolation == "" && sumMs > lat+stageSumSlack(lat) {
			stageViolation = fmt.Sprintf("slot %d: stage timings sum to %.3fms, exceeding the %.3fms slot latency", t, sumMs, lat)
		}
		welfare += rep.Welfare
		totalCost += rep.TotalCost
		stats.Accumulate(rep.Selection)
		for _, id := range r.oneShots {
			if rep.Answered(id) {
				answered++
			}
		}
		for _, id := range r.continuous {
			if rep.Answered(id) {
				answered++
			}
		}
	}
	runtime.ReadMemStats(&m1)

	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	critSorted := append([]float64(nil), criticals...)
	sort.Float64s(critSorted)
	var mean float64
	for _, l := range sorted {
		mean += l
	}
	mean /= float64(len(sorted))
	pct := func(p float64) float64 { return pctOf(sorted, p) }
	// Only sharded runs have lanes to subtract; leave the fields zero
	// (omitted from JSON) when the critical path equals the wall clock.
	var critP50, critP95 float64
	if shards > 1 {
		critP50 = pctOf(critSorted, 0.50)
		critP95 = pctOf(critSorted, 0.95)
	}

	stages := make([]stageBreakdown, 0, len(stageOrder))
	for _, name := range stageOrder {
		ms := append([]float64(nil), stageMs[name]...)
		sort.Float64s(ms)
		var m float64
		for _, v := range ms {
			m += v
		}
		stages = append(stages, stageBreakdown{
			Stage:  name,
			P50Ms:  pctOf(ms, 0.50),
			P95Ms:  pctOf(ms, 0.95),
			MeanMs: m / float64(len(ms)),
			MaxMs:  ms[len(ms)-1],
		})
	}

	return benchResult{
		Scenario:                sc.Name,
		Description:             sc.Desc,
		Seed:                    sc.Seed,
		Sensors:                 sc.Sensors,
		Slots:                   sc.Slots,
		Shards:                  shards,
		Submitted:               r.submitted,
		Answered:                answered,
		SlotMsP50:               pct(0.50),
		SlotMsP95:               pct(0.95),
		SlotMsMax:               sorted[len(sorted)-1],
		SlotMsMean:              mean,
		SlotStages:              stages,
		CriticalPathP50Ms:       critP50,
		CriticalPathP95Ms:       critP95,
		stageSumViolation:       stageViolation,
		CalibrationMs:           calibrate(),
		ValuationCalls:          stats.ValuationCalls,
		ExhaustiveEquivCalls:    stats.SerialEquivCalls,
		ValuationCallsSaved:     stats.SavedCalls(),
		LazyReevaluations:       stats.LazyReevaluations,
		SubmodularityViolations: stats.SubmodularityViolations,
		FallbackRescans:         stats.FallbackRescans,
		GeomCacheHits:           stats.GeomCacheHits,
		GeomCacheLookups:        stats.GeomCacheLookups,
		PosteriorAppends:        stats.PosteriorAppends,
		PosteriorRebuilds:       stats.PosteriorRebuilds,
		Welfare:                 welfare,
		TotalCost:               totalCost,
		Allocs:                  m1.Mallocs - m0.Mallocs,
		AllocBytes:              m1.TotalAlloc - m0.TotalAlloc,
		GoVersion:               runtime.Version(),
	}
}

// startClusterBackend boots one in-process psnode per shard on loopback
// sockets and returns a cluster coordinator driving them, its world
// replica, and a cleanup closing everything. Failures panic: a scenario
// that cannot assemble its backend is a harness bug, not a measurement.
func startClusterBackend(sc scenario, shards int) (slotBackend, *ps.World, func()) {
	nodes := make([]*cluster.NodeServer, shards)
	addrs := make([]string, shards)
	for k := 0; k < shards; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("psbench: scenario %s: node %d listen: %v", sc.Name, k, err))
		}
		node := cluster.NewNodeServer(fmt.Sprintf("node%d", k))
		go node.Serve(ln)
		nodes[k], addrs[k] = node, ln.Addr().String()
	}
	co, err := cluster.New(cluster.Config{
		World:      "rwm",
		Seed:       sc.Seed,
		Sensors:    sc.Sensors,
		Shards:     shards,
		Nodes:      addrs,
		RPCTimeout: 60 * time.Second,
	})
	if err != nil {
		panic(fmt.Sprintf("psbench: scenario %s: cluster: %v", sc.Name, err))
	}
	cleanup := func() {
		co.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
	return co.Sharded(), co.World(), cleanup
}

// maxLatencyRegression is the baseline gate: fail when the normalized
// p50 slot latency exceeds the baseline's by more than this factor.
const maxLatencyRegression = 2.0

// maxAllocRegression gates heap allocations per slot against the
// baseline. Allocation counts are deterministic for a fixed seed and
// scenario — no calibration needed — so the 1.5x headroom only absorbs
// Go-runtime drift (map growth policy, append heuristics), not
// algorithmic churn: reintroducing per-slot rebuilds of the selection
// state blows well past it.
const maxAllocRegression = 1.5

// targetRefCalibrationMs anchors absolute TargetP50Ms gates: the
// calibration-loop wall time on the reference machine the targets were
// set on. A machine with calibration C has its measured p50 scaled by
// targetRefCalibrationMs/C before the comparison, so a slower CI runner
// does not spuriously fail the gate and a faster one does not mask a
// real regression.
const targetRefCalibrationMs = 125.0

// minShardedSpeedup returns the p50 slot-latency speedup a sharded
// scenario must achieve over its same-machine unsharded run, gated on
// the better of the wall-clock ratio and the lane-parallel ratio
// (unsharded p50 over sharded critical-path p50 — what the wall ratio
// becomes once every lane has its own core).
//
// Both sides run lazy greedy, and the *unsharded* reference already
// prunes most candidate evaluations with the same heap, so sharding's
// win is lane parallelism plus smaller per-lane instances (cheaper
// relevance index, smaller heaps) — the workload measures ~2.5-2.9x
// lane-parallel.
func minShardedSpeedup() float64 {
	switch cores := runtime.GOMAXPROCS(0); {
	case cores >= 4:
		return 2.0
	case cores >= 2:
		return 1.8
	default:
		return 1.6
	}
}

// checkBaseline compares a run against bench/<BENCH_name.json>. It
// returns an error string ("" if fine) and whether a baseline existed.
func checkBaseline(res benchResult, baselineDir string) (string, bool) {
	path := filepath.Join(baselineDir, benchFileName(res.Scenario))
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	var base benchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Sprintf("baseline %s unreadable: %v", path, err), true
	}
	if base.SlotMsP50 <= 0 || base.CalibrationMs <= 0 || res.CalibrationMs <= 0 {
		return "", true
	}
	newNorm := res.SlotMsP50 / res.CalibrationMs
	oldNorm := base.SlotMsP50 / base.CalibrationMs
	if newNorm > maxLatencyRegression*oldNorm {
		return fmt.Sprintf("%s: normalized p50 slot latency %.3f is %.2fx the baseline %.3f (limit %.1fx); raw %.2fms vs %.2fms, calibration %.0fms vs %.0fms",
			res.Scenario, newNorm, newNorm/oldNorm, oldNorm, maxLatencyRegression,
			res.SlotMsP50, base.SlotMsP50, res.CalibrationMs, base.CalibrationMs), true
	}
	// Allocations per slot are seed-deterministic, so compare them
	// directly; only when both runs cover the same slot count (a -slots
	// override changes the workload, not the efficiency).
	if base.Allocs > 0 && base.Slots == res.Slots && res.Slots > 0 {
		newPer := float64(res.Allocs) / float64(res.Slots)
		oldPer := float64(base.Allocs) / float64(base.Slots)
		if newPer > maxAllocRegression*oldPer {
			return fmt.Sprintf("%s: %.0f allocations per slot is %.2fx the baseline %.0f (limit %.1fx)",
				res.Scenario, newPer, newPer/oldPer, oldPer, maxAllocRegression), true
		}
	}
	return "", true
}

func benchFileName(scenario string) string {
	return fmt.Sprintf("BENCH_%s.json", scenario)
}

// runScenarioMode is the -scenario entry point; it returns the process
// exit code. shardsFlag > 0 overrides every selected scenario's shard
// count (and disables the sharded-speedup gate, which is pinned to the
// scenarios' declared configurations).
func runScenarioMode(names string, slots int, seed int64, shardsFlag int, emitJSON bool, outDir, baselineDir string) int {
	var selected []scenario
	var streamSelected []streamScenario
	var overloadSelected []overloadScenario
	if names == "all" {
		// Overload soaks are excluded from "all" on purpose: they gate on
		// boolean degradation properties, not comparable numbers, and a
		// soak's wall time would dominate the sweep. Run them by name.
		selected = scenarios
		streamSelected = streamScenarios
	} else if sc, ok := scenarioByName(names); ok {
		selected = []scenario{sc}
	} else if ssc, ok := streamScenarioByName(names); ok {
		streamSelected = []streamScenario{ssc}
	} else if osc, ok := overloadScenarioByName(names); ok {
		overloadSelected = []overloadScenario{osc}
	} else {
		fmt.Fprintf(os.Stderr, "psbench: unknown scenario %q (have:", names)
		for _, s := range scenarios {
			fmt.Fprintf(os.Stderr, " %s", s.Name)
		}
		for _, s := range streamScenarios {
			fmt.Fprintf(os.Stderr, " %s", s.Name)
		}
		for _, s := range overloadScenarios {
			fmt.Fprintf(os.Stderr, " %s", s.Name)
		}
		fmt.Fprintln(os.Stderr, ", all)")
		return 2
	}

	exit := 0
	for _, sc := range selected {
		start := time.Now()
		shards := sc.Shards
		// Cluster scenarios measure loopback-RPC overhead on top of the
		// sharded layer, so the unsharded comparison is informational, not
		// a speedup gate.
		gateSpeedup := sc.Shards > 1 && shardsFlag == 0 && !sc.Cluster
		if shardsFlag > 0 {
			shards = shardsFlag
		}
		var res benchResult
		if shards > 1 {
			// Sharded scenario: run the unsharded configuration first on the
			// same machine so the speedup is a pure work ratio.
			base := runScenario(sc, slots, seed, 1)
			res = runScenario(sc, slots, seed, shards)
			res.UnshardedP50Ms = base.SlotMsP50
			if res.SlotMsP50 > 0 {
				res.SpeedupP50 = base.SlotMsP50 / res.SlotMsP50
			}
			if res.CriticalPathP50Ms > 0 {
				res.LaneSpeedupP50 = base.SlotMsP50 / res.CriticalPathP50Ms
			}
		} else {
			res = runScenario(sc, slots, seed, 1)
		}
		fmt.Printf("== %s (%d sensors, %d slots, %d shard(s)) — %s\n",
			res.Scenario, res.Sensors, res.Slots, res.Shards, sc.Desc)
		fmt.Printf("%-26s p50 %.2fms  p95 %.2fms  max %.2fms  mean %.2fms\n",
			"slot latency:", res.SlotMsP50, res.SlotMsP95, res.SlotMsMax, res.SlotMsMean)
		for _, st := range res.SlotStages {
			fmt.Printf("%-26s p50 %.2fms  p95 %.2fms  max %.2fms\n",
				"  stage "+st.Stage+":", st.P50Ms, st.P95Ms, st.MaxMs)
		}
		if res.stageSumViolation != "" {
			fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: %s\n", res.Scenario, res.stageSumViolation)
			exit = 1
		}
		fmt.Printf("%-26s %d made, %d exhaustive-equivalent (%d saved)\n",
			"valuation calls:", res.ValuationCalls, res.ExhaustiveEquivCalls, res.ValuationCallsSaved)
		fmt.Printf("%-26s %d reevals, %d violations, %d rescans\n",
			"lazy heap:", res.LazyReevaluations, res.SubmodularityViolations, res.FallbackRescans)
		fmt.Printf("%-26s %d/%d geometry hits, %d posterior appends, %d rebuilds\n",
			"valuation caches:", res.GeomCacheHits, res.GeomCacheLookups, res.PosteriorAppends, res.PosteriorRebuilds)
		fmt.Printf("%-26s %.1f welfare, %.1f cost, %d/%d query-slots answered\n",
			"outcome:", res.Welfare, res.TotalCost, res.Answered, res.Submitted)
		fmt.Printf("%-26s %d allocs, %.1f MB\n",
			"allocations:", res.Allocs, float64(res.AllocBytes)/(1<<20))
		if res.SpeedupP50 > 0 {
			fmt.Printf("%-26s %.2fx p50 vs unsharded (%.2fms -> %.2fms)\n",
				"sharded speedup:", res.SpeedupP50, res.UnshardedP50Ms, res.SlotMsP50)
			gated := res.SpeedupP50
			if res.LaneSpeedupP50 > 0 {
				fmt.Printf("%-26s %.2fx lane-parallel (critical path %.2fms p50 / %.2fms p95)\n",
					"", res.LaneSpeedupP50, res.CriticalPathP50Ms, res.CriticalPathP95Ms)
				gated = math.Max(gated, res.LaneSpeedupP50)
			}
			if want := minShardedSpeedup(); gateSpeedup && gated < want {
				fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: sharded p50 speedup %.2fx below the required %.1fx (%d CPUs)\n",
					res.Scenario, gated, want, runtime.GOMAXPROCS(0))
				exit = 1
			}
		}
		if sc.TargetP50Ms > 0 && res.CalibrationMs > 0 {
			res.TargetP50Ms = sc.TargetP50Ms
			gatedP50 := res.SlotMsP50
			if res.CriticalPathP50Ms > 0 {
				// The budget targets the deployment configuration (a core
				// per shard lane); the critical path is that figure however
				// many cores this runner has.
				gatedP50 = res.CriticalPathP50Ms
			}
			res.NormalizedP50Ms = gatedP50 * (targetRefCalibrationMs / res.CalibrationMs)
			fmt.Printf("%-26s %.2fms normalized p50 against a %.0fms budget (raw %.2fms, calibration %.0fms)\n",
				"latency budget:", res.NormalizedP50Ms, res.TargetP50Ms, gatedP50, res.CalibrationMs)
			// Overridden slot counts, seeds or shard layouts change the
			// workload the budget was set for, so the gate only fires on the
			// declared configuration.
			if shardsFlag == 0 && slots <= 0 && seed == 0 && res.NormalizedP50Ms > res.TargetP50Ms {
				fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: normalized p50 %.2fms exceeds the %.0fms budget\n",
					res.Scenario, res.NormalizedP50Ms, res.TargetP50Ms)
				exit = 1
			}
		}

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
		if baselineDir != "" {
			msg, found := checkBaseline(res, baselineDir)
			switch {
			case msg != "":
				fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s\n", msg)
				exit = 1
			case !found:
				fmt.Printf("%-26s none for %s (skipped)\n", "baseline:", res.Scenario)
			default:
				fmt.Printf("%-26s ok (within %.1fx of %s)\n", "baseline:",
					maxLatencyRegression, filepath.Join(baselineDir, benchFileName(res.Scenario)))
			}
		}
		fmt.Printf("-- %s done in %v\n\n", res.Scenario, time.Since(start).Round(time.Millisecond))
	}
	// Streaming scenarios gate on absolute push-delivery properties
	// (zero polls, p95 within one slot), not on a latency baseline, so
	// -baseline does not apply to them.
	for _, ssc := range streamSelected {
		if code := runStreamScenarioMode(ssc, 0, emitJSON, outDir); code != 0 {
			exit = code
		}
	}
	// Overload soaks likewise gate on absolute degradation invariants;
	// -slots shortens the soak for the reduced-scale CI configuration.
	for _, osc := range overloadSelected {
		if code := runOverloadScenarioMode(osc, slots, emitJSON, outDir); code != 0 {
			exit = code
		}
	}
	return exit
}
