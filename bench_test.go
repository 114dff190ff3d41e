package ps_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figs 2-10), the §4.7 trust experiment, and the design-choice ablations
// from DESIGN.md, plus micro-benchmarks of the core schedulers.
//
// Figure benchmarks run a reduced horizon (10 slots, two budget points) so
// `go test -bench=.` finishes in minutes; cmd/psbench regenerates the
// figures at the paper's full scale (50 slots, full budget sweeps) and
// EXPERIMENTS.md records those numbers. Each figure benchmark reports
// welfare-derived custom metrics so regressions in solution quality (not
// just speed) are visible.

import (
	"fmt"
	"testing"

	ps "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sim"
)

// benchOpts is the reduced scale shared by the figure benchmarks.
var benchOpts = sim.Options{Slots: 10, Seed: 1, Budgets: []float64{10, 25}, QueriesPerSlot: 300}

// runFigure executes a registered figure once per iteration and reports
// the first table's first series mean as a quality metric.
func runFigure(b *testing.B, id string, opts sim.Options) {
	b.Helper()
	fig, ok := sim.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var lastMean float64
	for i := 0; i < b.N; i++ {
		tables := fig.Run(opts)
		if len(tables) == 0 || len(tables[0].Series) == 0 {
			b.Fatal("figure produced no data")
		}
		var sum float64
		for _, v := range tables[0].Series[0].Values {
			sum += v
		}
		lastMean = sum / float64(len(tables[0].Series[0].Values))
	}
	b.ReportMetric(lastMean, "welfare/slot")
}

func BenchmarkFig2(b *testing.B) { runFigure(b, "fig2", benchOpts) }
func BenchmarkFig3(b *testing.B) { runFigure(b, "fig3", benchOpts) }
func BenchmarkFig4(b *testing.B) { runFigure(b, "fig4", benchOpts) }
func BenchmarkFig5(b *testing.B) {
	opts := benchOpts
	opts.Budgets = []float64{250, 500} // x-axis is the query count here
	runFigure(b, "fig5", opts)
}
func BenchmarkFig6(b *testing.B)  { runFigure(b, "fig6", benchOpts) }
func BenchmarkFig7(b *testing.B)  { runFigure(b, "fig7", benchOpts) }
func BenchmarkFig8(b *testing.B)  { runFigure(b, "fig8", benchOpts) }
func BenchmarkFig9(b *testing.B)  { runFigure(b, "fig9", benchOpts) }
func BenchmarkFig10(b *testing.B) { runFigure(b, "fig10", benchOpts) }

func BenchmarkTrustSweep(b *testing.B) {
	opts := benchOpts
	opts.Budgets = nil // use the figure's own trust x-axis
	runFigure(b, "trust", opts)
}

func BenchmarkAblationLocalSearch(b *testing.B) { runFigure(b, "ablation-ls", benchOpts) }
func BenchmarkAblationCostWeight(b *testing.B)  { runFigure(b, "ablation-weight", benchOpts) }
func BenchmarkAblationAlpha(b *testing.B) {
	opts := benchOpts
	opts.Budgets = []float64{0.25, 0.75} // x-axis is alpha here
	runFigure(b, "ablation-alpha", opts)
}
func BenchmarkAblationEgalitarian(b *testing.B) { runFigure(b, "ablation-egalitarian", benchOpts) }

// --- micro-benchmarks of the core schedulers -----------------------------

// benchScenario builds one slot's worth of paper-scale point-query input.
func benchScenario(seed int64) ([]*query.Point, []core.Offer) {
	world := datasets.NewRWM(seed, 200, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	wrnd := rng.New(seed, "bench-workload")
	wl := sim.PointWorkload{
		QueriesPerSlot: 300, BudgetMean: 15,
		DMax: world.DMax, Working: world.Working, Grid: world.Grid,
	}
	return wl.Slot(0, wrnd), offers
}

func BenchmarkOptimalPointSlot(b *testing.B) {
	queries, offers := benchScenario(1)
	solver := sim.ExactOptimal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

func BenchmarkLocalSearchPointSlot(b *testing.B) {
	queries, offers := benchScenario(1)
	solver := core.LocalSearchPoint(core.DefaultLocalSearchEpsilon)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

func BenchmarkBaselinePointSlot(b *testing.B) {
	queries, offers := benchScenario(1)
	solver := core.BaselinePoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

func BenchmarkGreedyAggregateSlot(b *testing.B) {
	world := datasets.NewRNC(1, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	wl := sim.AggregateWorkload{
		MeanQueries: 30, BudgetFactor: 15, SensingRange: 10, RS: 10,
		Working: world.Working, Grid: world.Grid, MinDim: 10, MaxDim: 40,
	}
	aggs := wl.Slot(0, rng.New(1, "bench-agg"))
	qs := make([]query.Query, len(aggs))
	for i, a := range aggs {
		qs[i] = a
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedySelect(qs, offers)
	}
}

func BenchmarkMixSlot(b *testing.B) {
	world := datasets.NewRNC(1, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	prnd := rng.New(1, "bench-mix-p")
	arnd := rng.New(1, "bench-mix-a")
	pwl := sim.PointWorkload{QueriesPerSlot: 300, BudgetMean: 15, DMax: world.DMax, Working: world.Working, Grid: world.Grid}
	awl := sim.AggregateWorkload{MeanQueries: 30, BudgetFactor: 15, SensingRange: 10, RS: 10, Working: world.Working, Grid: world.Grid, MinDim: 10, MaxDim: 40}
	points := pwl.Slot(0, prnd)
	aggs := awl.Slot(0, arnd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunMixSlot(0, core.MixQueries{Points: points, Aggregates: aggs}, offers, false)
	}
}

func BenchmarkFLSolverMediumInstance(b *testing.B) {
	queries, offers := benchScenario(2)
	groupsBySensor := len(offers)
	_ = groupsBySensor
	solver := core.OptimalPoint(core.OptimalOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

// largeFleetSlot builds one slot of mixed point+aggregate input on an
// n-sensor fleet — the candidate-evaluation hot path's worst case.
func largeFleetSlot(seed int64, n int) ([]query.Query, []core.Offer) {
	world := datasets.NewRWM(seed, n, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	pwl := sim.PointWorkload{QueriesPerSlot: 200, BudgetMean: 15, DMax: world.DMax, Working: world.Working, Grid: world.Grid}
	awl := sim.AggregateWorkload{MeanQueries: 10, BudgetFactor: 15, SensingRange: 10, RS: 10, Working: world.Working, Grid: world.Grid, MinDim: 10, MaxDim: 30}
	points := pwl.Slot(0, rng.New(seed, "bench-parallel-p"))
	aggs := awl.Slot(0, rng.New(seed, "bench-parallel-a"))
	qs := make([]query.Query, 0, len(points)+len(aggs))
	for _, q := range aggs {
		qs = append(qs, q)
	}
	for _, q := range points {
		qs = append(qs, q)
	}
	return qs, offers
}

// redundantFleetSlot builds one slot of k-redundancy demand on an
// n-sensor fleet: §2.2.1 multiple-sensor point queries asking for 10
// redundant readings each, plus a thin stream of plain point queries.
// Every multipoint query commits many sensors, so each (sensor, query)
// pair goes stale many times — the regime where CELF's lazy pruning pays
// off most (plain one-commit point queries already amortize under the
// version cache, and aggregate valuations are re-evaluated eagerly
// because Eq. 5 is not submodular).
func redundantFleetSlot(seed int64, n int) ([]query.Query, []core.Offer) {
	world := datasets.NewRWM(seed, n, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	w := world.Working
	rnd := rng.New(seed, "bench-redundant")
	var qs []query.Query
	for i := 0; i < 600; i++ {
		loc := ps.Pt(rnd.Uniform(w.MinX, w.MaxX), rnd.Uniform(w.MinY, w.MaxY))
		qs = append(qs, query.NewMultiPoint(fmt.Sprintf("mp%d", i), loc, 250+rnd.Uniform(0, 350), world.DMax, 16))
	}
	pwl := sim.PointWorkload{QueriesPerSlot: 100, BudgetMean: 15, DMax: world.DMax, Working: world.Working, Grid: world.Grid}
	for _, q := range pwl.Slot(0, rng.New(seed, "bench-redundant-p")) {
		qs = append(qs, q)
	}
	return qs, offers
}

// BenchmarkLazyCandidateEval compares Algorithm 1's lazy selection path
// with the exhaustive-scan oracle on large fleets, reporting the
// valuation calls actually made next to what the exhaustive
// version-cached scan would make. Selections are bit-identical (see
// TestLazyStrategyLargeFleet); only work differs.
func BenchmarkLazyCandidateEval(b *testing.B) {
	for _, wl := range []struct {
		name string
		gen  func(int64, int) ([]query.Query, []core.Offer)
	}{
		{"mixed", largeFleetSlot},
		{"redundant", redundantFleetSlot},
	} {
		for _, n := range []int{200, 1000, 10000} {
			qs, offers := wl.gen(1, n)
			for _, sc := range []struct {
				name string
				sel  func([]query.Query, []core.Offer) *core.MultiResult
			}{
				{"exhaustive", core.ExhaustiveSelect},
				{"lazy", core.GreedySelect},
			} {
				b.Run(fmt.Sprintf("%s/%s/sensors=%d", wl.name, sc.name, n), func(b *testing.B) {
					var calls, exhaustive int64
					for i := 0; i < b.N; i++ {
						res := sc.sel(qs, offers)
						calls += res.Stats.ValuationCalls
						exhaustive += res.Stats.SerialEquivCalls
					}
					b.ReportMetric(float64(calls)/float64(b.N), "valcalls/op")
					b.ReportMetric(float64(exhaustive)/float64(b.N), "exhaustive-valcalls/op")
				})
			}
		}
	}
}

// TestLazyStrategyLargeFleet is the acceptance gate of the lazy fast
// path at 10k sensors:
//
//   - on the mixed slot (points + non-submodular aggregates) the lazy
//     path must be bit-identical to the exhaustive oracle and never make
//     more valuation calls;
//   - on the redundancy-heavy slot it must additionally make at least 3x
//     fewer valuation calls.
//
// Skipped under -short (the -race CI job); the CI bench job runs it
// unraced.
func TestLazyStrategyLargeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-sensor equivalence test skipped in -short mode")
	}
	for _, wl := range []struct {
		name     string
		gen      func(int64, int) ([]query.Query, []core.Offer)
		minRatio float64
	}{
		{"mixed", largeFleetSlot, 1},
		{"redundant", redundantFleetSlot, 3},
	} {
		qs, offers := wl.gen(1, 10000)
		oracle := core.ExhaustiveSelect(qs, offers)
		lazy := core.GreedySelect(qs, offers)
		if diff := core.DiffMultiResults(oracle, lazy); diff != "" {
			t.Fatalf("%s: %s", wl.name, diff)
		}
		ratio := float64(oracle.Stats.ValuationCalls) / float64(lazy.Stats.ValuationCalls)
		t.Logf("%s: %d valuation calls vs exhaustive %d (%.2fx fewer), %d reevals, %d violations, %d rescans",
			wl.name, lazy.Stats.ValuationCalls, oracle.Stats.ValuationCalls, ratio,
			lazy.Stats.LazyReevaluations, lazy.Stats.SubmodularityViolations, lazy.Stats.FallbackRescans)
		if ratio < wl.minRatio {
			t.Errorf("%s: only %.2fx fewer valuation calls, want >= %.0fx",
				wl.name, ratio, wl.minRatio)
		}
	}
}

// BenchmarkEngineThroughput measures end-to-end queries/sec through the
// streaming engine: enqueue a slot's worth of point and aggregate queries
// (the mix pipeline — the serving hot path), execute the slot, and
// consume every subscription's result.
func BenchmarkEngineThroughput(b *testing.B) {
	const pointsPerSlot, aggsPerSlot = 100, 3
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("sensors=%d", n), func(b *testing.B) {
			world := ps.NewRWMWorld(1, n, ps.SensorConfig{})
			eng := ps.NewEngine(ps.NewAggregator(world), ps.WithBlockingSubmit(),
				ps.WithQueueSize(2*(pointsPerSlot+aggsPerSlot)))
			eng.Start()
			defer eng.Stop()
			w := world.Working
			rnd := rng.New(1, "bench-engine")
			var handles []*ps.QueryHandle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handles = handles[:0]
				for j := 0; j < pointsPerSlot; j++ {
					h, err := eng.Submit(ps.PointSpec{
						ID:     fmt.Sprintf("q%d-%d", i, j),
						Loc:    ps.Pt(rnd.Uniform(w.MinX, w.MaxX), rnd.Uniform(w.MinY, w.MaxY)),
						Budget: 15,
					})
					if err != nil {
						b.Fatalf("submit: %v", err)
					}
					handles = append(handles, h)
				}
				for j := 0; j < aggsPerSlot; j++ {
					x, y := rnd.Uniform(w.MinX, w.MaxX-15), rnd.Uniform(w.MinY, w.MaxY-15)
					h, err := eng.Submit(ps.AggregateSpec{
						ID:     fmt.Sprintf("a%d-%d", i, j),
						Region: ps.NewRect(x, y, x+10, y+10),
						Budget: 300,
					})
					if err != nil {
						b.Fatalf("submit: %v", err)
					}
					handles = append(handles, h)
				}
				if err := eng.RunSlots(1); err != nil {
					b.Fatalf("slot: %v", err)
				}
				for _, h := range handles {
					for range h.Events() {
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*(pointsPerSlot+aggsPerSlot)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

func BenchmarkRegionPlanningSlot(b *testing.B) {
	world := datasets.NewIntelLab(1, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	q := query.NewRegionMonitoring("rm", geo.NewRect(2, 2, 14, 11), 0, 15, 120, world.GPModel, world.Grid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunRegionMonitoringSlot(0, []*query.RegionMonitoring{q}, offers, core.RegMonOptions{
			Solver: core.OptimalPoint(core.OptimalOptions{}), CostWeighting: true, ShareSensors: true,
		})
	}
}
