package ps

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// newOracle builds an aggregator whose Algorithm 1 runs the exhaustive
// scan: the reference the lazy production path must match bit for bit.
func newOracle(w *World) *Aggregator {
	a := NewAggregator(w)
	a.exhaustive = true
	return a
}

// requireOracleRan fails unless the reference aggregator really ran the
// exhaustive scan: it makes exactly the calls its accounting model
// predicts, while the lazy aggregator makes fewer.
func requireOracleRan(t *testing.T, ref, lazy *Aggregator) {
	t.Helper()
	rs, ls := ref.SelectionStats(), lazy.SelectionStats()
	if rs.ValuationCalls != rs.SerialEquivCalls || ls.ValuationCalls >= rs.ValuationCalls {
		t.Fatalf("oracle made %d of %d exhaustive calls, lazy made %d: the oracle hook is not in effect",
			rs.ValuationCalls, rs.SerialEquivCalls, ls.ValuationCalls)
	}
}

// requireShardLaneLazy fails unless the single-shard aggregator ran its
// whole demand in the shard lane (the spanning lane stayed idle) and
// that lane made fewer valuation calls than the exhaustive oracle.
func requireShardLaneLazy(t *testing.T, ref *Aggregator, sharded *ShardedAggregator) {
	t.Helper()
	rs, ss := ref.SelectionStats(), sharded.SelectionStats()
	if ss.ValuationCalls == 0 || ss.ValuationCalls >= rs.ValuationCalls {
		t.Fatalf("shard lane made %d valuation calls, oracle %d: want the lazy path's saving",
			ss.ValuationCalls, rs.ValuationCalls)
	}
	if span := sharded.ShardStats()[1]; !span.Spanning || span.Queries != 0 {
		t.Fatalf("spanning lane = %+v, want idle", span)
	}
}

// submitter is the Submit surface shared by Aggregator and
// ShardedAggregator.
type submitter interface {
	Submit(Spec) (SubmittedQuery, error)
}

// submitAll submits one spec to every pipeline in the slice.
func submitAll(t *testing.T, aggs []submitter, spec Spec) {
	t.Helper()
	for _, a := range aggs {
		if _, err := a.Submit(spec); err != nil {
			t.Fatalf("Submit(%s %q): %v", spec.Kind(), spec.QueryID(), err)
		}
	}
}

// TestStrategyEquivalenceAllQueryKinds drives seven of the eight query
// kinds (everything except region monitoring, which needs a GP-modelled
// world — see the IntelLab companion test below) through full
// Aggregator pipelines on seeded random worlds — the lazy production
// path, the same path run as the lane of a single-shard
// ShardedAggregator (the "lazy-sharded" subtests), and the exhaustive
// oracle — and requires every slot report to be bit-identical to the
// oracle's: same welfare, per-query values and payments to the last
// float bit. This is the end-to-end counterpart of
// the internal/core strategy tests — it additionally exercises probe
// generation, continuous-query bookkeeping, event detection and the
// accounting loops that consume the selection results.
func TestStrategyEquivalenceAllQueryKinds(t *testing.T) {
	const sensors, slots = 300, 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := newOracle(NewRWMWorld(seed, sensors, SensorConfig{}))
			lazy := NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}))
			sharded := NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 1)
			all := []submitter{ref, lazy, sharded}
			s := rng.New(seed, "strategy-equivalence")
			w := ref.world.Working

			// Continuous kinds: location monitoring, event detection and
			// region-event watching live across the whole horizon.
			for i := 0; i < 3; i++ {
				submitAll(t, all, LocationMonitoringSpec{
					ID:       fmt.Sprintf("lm-%d", i),
					Loc:      Pt(s.Uniform(w.MinX+5, w.MaxX-5), s.Uniform(w.MinY+5, w.MaxY-5)),
					Duration: slots, Budget: 120, Samples: 3,
				})
				submitAll(t, all, EventDetectionSpec{
					ID:       fmt.Sprintf("ev-%d", i),
					Loc:      Pt(s.Uniform(w.MinX+5, w.MaxX-5), s.Uniform(w.MinY+5, w.MaxY-5)),
					Duration: slots, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30,
				})
				x, y := s.Uniform(w.MinX, w.MaxX-12), s.Uniform(w.MinY, w.MaxY-12)
				submitAll(t, all, RegionEventSpec{
					ID:       fmt.Sprintf("re-%d", i),
					Region:   NewRect(x, y, x+10, y+10),
					Duration: slots, Threshold: 0.5, Confidence: 0.5, BudgetPerSlot: 50,
				})
			}

			for slot := 0; slot < slots; slot++ {
				// One-shot kinds: points, k-redundancy multipoints, spatial
				// aggregates and trajectories, at random locations each slot.
				for i := 0; i < 12; i++ {
					submitAll(t, all, PointSpec{
						ID:     fmt.Sprintf("pt-%d-%d", slot, i),
						Loc:    Pt(s.Uniform(w.MinX, w.MaxX), s.Uniform(w.MinY, w.MaxY)),
						Budget: 8 + s.Uniform(0, 20),
					})
				}
				for i := 0; i < 3; i++ {
					submitAll(t, all, MultiPointSpec{
						ID:     fmt.Sprintf("mp-%d-%d", slot, i),
						Loc:    Pt(s.Uniform(w.MinX, w.MaxX), s.Uniform(w.MinY, w.MaxY)),
						Budget: 40 + s.Uniform(0, 40), K: 2 + s.Intn(3),
					})
				}
				for i := 0; i < 2; i++ {
					x, y := s.Uniform(w.MinX, w.MaxX-25), s.Uniform(w.MinY, w.MaxY-25)
					submitAll(t, all, AggregateSpec{
						ID:     fmt.Sprintf("agg-%d-%d", slot, i),
						Region: NewRect(x, y, x+s.Uniform(8, 22), y+s.Uniform(8, 22)),
						Budget: 150 + s.Uniform(0, 150),
					})
				}
				x, y := s.Uniform(w.MinX, w.MaxX-20), s.Uniform(w.MinY, w.MaxY-20)
				submitAll(t, all, TrajectorySpec{
					ID: fmt.Sprintf("tr-%d", slot),
					Path: Trajectory{Waypoints: []Point{
						Pt(x, y), Pt(x+s.Uniform(5, 15), y+s.Uniform(5, 15)),
					}},
					Budget: 80 + s.Uniform(0, 60),
				})

				want := snapshot(ref.RunSlot())
				got := snapshot(lazy.RunSlot())
				t.Run(fmt.Sprintf("slot%d-lazy", slot), func(t *testing.T) {
					requireIdentical(t, slot, want, got)
				})
				gotSharded := snapshot(sharded.RunSlot())
				t.Run(fmt.Sprintf("slot%d-lazy-sharded", slot), func(t *testing.T) {
					requireIdentical(t, slot, want, gotSharded)
				})
			}
			requireOracleRan(t, ref, lazy)
			requireShardLaneLazy(t, ref, sharded)
		})
	}
}

// TestStrategyEquivalenceRegionMonitoring covers the eighth kind: region
// monitoring runs on the IntelLab world (the only built-in world with a
// fitted GP model) and exercises the rank-1 base-posterior cache on
// the lazy path, unsharded and in a single-shard lane, and on the
// oracle — appends and rebuilds must not perturb selections.
func TestStrategyEquivalenceRegionMonitoring(t *testing.T) {
	const slots = 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := newOracle(NewIntelLabWorld(seed, SensorConfig{}))
			lazy := NewAggregator(NewIntelLabWorld(seed, SensorConfig{}))
			sharded := NewShardedAggregator(NewIntelLabWorld(seed, SensorConfig{}), 1)
			all := []submitter{ref, lazy, sharded}
			s := rng.New(seed, "strategy-equivalence-regmon")
			w := ref.world.Working

			for i := 0; i < 2; i++ {
				x, y := s.Uniform(w.MinX, w.MaxX-8), s.Uniform(w.MinY, w.MaxY-8)
				submitAll(t, all, RegionMonitoringSpec{
					ID:       fmt.Sprintf("rm-%d", i),
					Region:   NewRect(x, y, x+s.Uniform(4, 7), y+s.Uniform(4, 7)),
					Duration: slots, Budget: 180,
				})
			}
			for slot := 0; slot < slots; slot++ {
				for i := 0; i < 4; i++ {
					submitAll(t, all, PointSpec{
						ID:     fmt.Sprintf("pt-%d-%d", slot, i),
						Loc:    Pt(s.Uniform(w.MinX, w.MaxX), s.Uniform(w.MinY, w.MaxY)),
						Budget: 10 + s.Uniform(0, 10),
					})
				}
				want := snapshot(ref.RunSlot())
				got := snapshot(lazy.RunSlot())
				t.Run(fmt.Sprintf("slot%d-lazy", slot), func(t *testing.T) {
					requireIdentical(t, slot, want, got)
				})
				gotSharded := snapshot(sharded.RunSlot())
				t.Run(fmt.Sprintf("slot%d-lazy-sharded", slot), func(t *testing.T) {
					requireIdentical(t, slot, want, gotSharded)
				})
			}
			requireOracleRan(t, ref, lazy)
			requireShardLaneLazy(t, ref, sharded)
		})
	}
}
