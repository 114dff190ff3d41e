// Package ps is the public API of this reproduction of "Utility-driven
// Data Acquisition in Participatory Sensing" (Riahi, Papaioannou, Trummer,
// Aberer — EDBT 2013).
//
// A participatory-sensing deployment is modeled as a World: a fleet of
// mobile, priced, partially trusted sensors roaming a region. Applications
// describe what they want as query specs — PointSpec, MultiPointSpec,
// AggregateSpec, TrajectorySpec, LocationMonitoringSpec,
// RegionMonitoringSpec, EventDetectionSpec, RegionEventSpec — and submit
// them to an Aggregator, which once per time slot selects the sensors
// that maximize social welfare (total query valuation minus total sensor
// cost), shares sensors across queries, and splits each sensor's cost
// among the queries it serves so that every answered query keeps positive
// utility.
//
// Quick start:
//
//	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
//	agg := ps.NewAggregator(world)
//	agg.Submit(ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15})
//	report := agg.RunSlot()
//	fmt.Println(report.Welfare, report.Answered("q1"))
//
// The scheduling policies of the paper are selectable via
// WithScheduling: SchedulingOptimal (the exact BILP of §3.1.1, default),
// SchedulingLocalSearch (the 1/3-approximation of §3.1.2),
// SchedulingBaseline (the evaluation's baseline) and
// SchedulingEgalitarian. Continuous queries persist across slots and are
// re-planned every slot per Algorithms 2-5.
//
// For serving live traffic, Engine wraps an Aggregator into a
// concurrent, slot-clocked streaming layer: submissions from any
// goroutine become non-blocking enqueues returning a QueryHandle whose
// subscription streams typed events (Accepted, one SlotUpdate per
// active slot, then Final or Canceled; Gap frames summarize anything a
// slow consumer missed), a real-time or virtual clock drives the slots,
// additional observers attach with Engine.Watch, and cmd/psserve exposes
// the whole thing over HTTP — including server-pushed /watch streams:
//
//	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithSlotInterval(time.Second))
//	eng.Start()
//	h, _ := eng.Submit(ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15})
//	for ev := range h.Events() {
//		if ev.Type == ps.EventSlotUpdate {
//			fmt.Println(ev.Slot, ev.Result.Value)
//		}
//	}
//	eng.Stop()
//
// Package wire defines the JSON wire format of that HTTP API, and
// package psclient is the matching Go SDK.
//
// Algorithm 1 finds each round's best sensor with CELF-style lazy
// greedy: cached net benefits in a max-heap, re-evaluated only when
// stale. Its welfare, values and payments are bit-identical to the
// paper's exhaustive scan, which the equivalence tests keep as the
// reference. Geo-sharded execution (NewShardedAggregator) runs one lazy
// pass per shard lane in parallel; at the pinned 40k-sensor
// sharded-metro benchmark it holds a sub-100ms per-lane critical path.
// See PERFORMANCE.md for the cost model, the valuation caches and their
// invalidation rules.
//
// See DESIGN.md for the package inventory and the engine architecture
// (ingest, event loop, slot clock, fan-out, shard-lane fan-out); cmd/psbench regenerates the paper's figures and
// load-tests the engine, and bench_test.go tracks both speed and
// solution quality.
package ps
