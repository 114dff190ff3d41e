package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"time"

	ps "repro"
)

// slotBackend is what the closed-loop workloads drive: the in-process
// ShardedAggregator, or the one a cluster coordinator wraps.
type slotBackend interface {
	Submit(ps.Spec) (ps.SubmittedQuery, error)
	CancelQuery(id string) bool
	RunSlot() *ps.SlotReport
}

// loopParams are a closed loop's reporting choices.
type loopParams struct {
	// tail is the percentile the final_ms_p99 metrics report. Every query
	// of a slot gets its result when RunSlot returns, so the final-latency
	// sample has one independent value per slot; tail is the highest
	// percentile with ten slots beyond it in a run (p90 at 100 slots).
	tail float64
	// heapAt is the timed slot after which heap_mb is taken, so a change
	// that runs more slots in the same time is not charged for the state
	// those extra slots leave behind. A shorter run takes it at the end.
	heapAt int
}

// slotAcc accumulates the closed-loop workloads' per-slot measurements.
type slotAcc struct {
	loop     loopParams
	heapGC   time.Duration // time spent taking heap_mb, excluded from the wall time
	slots    int
	cycles   []float64 // slot cycle, ms
	finals   []float64 // one-shot submit to RunSlot return, ms
	submitUs []float64 // traced runs only
	answered int
	queries  int
	stageMs  map[string]float64
	laneMax  float64
	laneSkew float64
	sel      ps.SelectionStats
}

func newSlotAcc(loop loopParams) *slotAcc {
	return &slotAcc{loop: loop, stageMs: map[string]float64{}}
}

// heapCheckpoint takes heap_mb once the timed phase has run heapAt slots.
func (a *slotAcc) heapCheckpoint(out map[string]float64) {
	if a.slots == a.loop.heapAt {
		start := time.Now()
		out["heap_mb"] = liveHeapMB()
		a.heapGC = time.Since(start)
	}
}

// addReport folds one slot's report into the accumulator.
func (a *slotAcc) addReport(rep *ps.SlotReport) {
	a.slots++
	for _, st := range rep.Stages {
		a.stageMs[st.Stage] += ms(st.Duration)
	}
	a.sel.Accumulate(rep.Selection)
	var lanes []float64
	for _, sh := range rep.Shards {
		if !sh.Spanning {
			lanes = append(lanes, sh.SelectMs)
		}
	}
	if len(lanes) > 0 {
		m := slices.Max(lanes)
		a.laneMax += m
		a.laneSkew += ratio(m, mean(lanes))
	}
}

// endToEnd fills the closed-loop end-to-end metrics. A closed loop has
// one load level, so the .low and .high final-latency metrics report the
// same sample: one-shot queries from submit to the RunSlot that answers
// them.
func (a *slotAcc) endToEnd(out map[string]float64, wall time.Duration) {
	if _, ok := out["heap_mb"]; !ok {
		out["heap_mb"] = liveHeapMB()
	}
	out["slot_ms_p50"] = pct(a.cycles, 0.50)
	out["slot_ms_p90"] = pct(a.cycles, 0.90)
	out["query_slots_per_s"] = float64(a.answered) / (wall - a.heapGC).Seconds()
	p50, p99 := pct(a.finals, 0.50), pct(a.finals, a.loop.tail)
	out["final_ms_p50.low"], out["final_ms_p50.high"] = p50, p50
	out["final_ms_p99.low"], out["final_ms_p99.high"] = p99, p99
}

// layers fills the ps.* and core.* per-layer metrics (per-slot means).
func (a *slotAcc) layers(out map[string]float64) {
	n := float64(max(a.slots, 1))
	for _, st := range []string{"offer_gather", "route", "shard_select", "spanning", "reconcile", "commit", "accounting"} {
		out["ps."+st+"_ms"] = a.stageMs[st] / n
	}
	out["ps.selection_ms"] = (a.stageMs["selection"] + a.stageMs["shard_select"] + a.stageMs["lane_rpc"] + a.stageMs["spanning"]) / n
	out["ps.lane_select_ms_max"] = a.laneMax / n
	out["ps.lane_skew"] = a.laneSkew / n
	out["ps.submit_us_p50"] = pct(a.submitUs, 0.50)
	out["ps.submit_us_p99"] = pct(a.submitUs, 0.99)
	out["core.valuation_calls_per_slot"] = float64(a.sel.ValuationCalls) / n
	out["core.calls_saved_ratio"] = ratio(float64(a.sel.SavedCalls()), float64(a.sel.SerialEquivCalls))
	out["core.lazy_reevals_per_slot"] = float64(a.sel.LazyReevaluations) / n
	out["core.fallback_rescans"] = float64(a.sel.FallbackRescans)
	out["core.geom_hit_ratio"] = ratio(float64(a.sel.GeomCacheHits), float64(a.sel.GeomCacheLookups))
}

// runTimedSlot runs one slot of a closed loop inside the slot cycle span
// slotSpan, which it closes: it traces RunSlot with the report's stages
// as children, counts the slot as an operation, and checks that no lane
// degraded and that the stages fit inside the measured RunSlot time.
func runTimedSlot(out *outcome, tr *tracer, b slotBackend, t, slotSpan int) (*ps.SlotReport, time.Time) {
	key := fmt.Sprint(t)
	start := time.Now()
	run := tr.open("ps.RunSlot", key, slotSpan, start)
	tr.setCurrent(run)
	rep := b.RunSlot()
	end := time.Now()
	tr.close(run, end)
	tr.close(slotSpan, end)
	tr.stages(run, key, start, rep.Stages)

	out.attempted++
	if len(rep.Degraded) > 0 {
		out.failed++
		out.problem("slot %d: degraded lanes %v", t, rep.Degraded)
	}
	if v := stageSumViolation(t, rep.Stages, end.Sub(start)); v != "" {
		out.problem("%s", v)
	}
	return rep, end
}

// reportDigest hashes everything a SlotReport says about a slot's
// outcome — totals and every query's answered flag, value and payment,
// floats by their exact bits — so two runs can be compared exactly.
func reportDigest(rep *ps.SlotReport) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(rep.Slot))
	put(math.Float64bits(rep.Welfare))
	put(math.Float64bits(rep.TotalCost))
	put(uint64(rep.SensorsUsed))
	put(uint64(rep.Offers))
	type row struct {
		id string
		o  ps.QueryOutcome
	}
	var rows []row
	for id, o := range rep.Outcomes() {
		rows = append(rows, row{id, o})
	}
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.id, b.id) })
	for _, r := range rows {
		h.Write([]byte(r.id))
		put(math.Float64bits(r.o.Value))
		put(math.Float64bits(r.o.Payment))
		if r.o.Answered {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// budgetOf is the most a spec's query may pay in one slot.
func budgetOf(s ps.Spec) float64 {
	switch s := s.(type) {
	case ps.PointSpec:
		return s.Budget
	case ps.MultiPointSpec:
		return s.Budget
	case ps.AggregateSpec:
		return s.Budget
	case ps.TrajectorySpec:
		return s.Budget
	case ps.LocationMonitoringSpec:
		return s.Budget
	case ps.EventDetectionSpec:
		return s.BudgetPerSlot
	default:
		return math.Inf(1)
	}
}

// checkPayments flags every query that paid more than its budget.
func checkPayments(out *outcome, rep *ps.SlotReport, budgets map[string]float64) {
	for id, o := range rep.Outcomes() {
		b, ok := budgets[id]
		if !ok {
			out.problem("slot %d: outcome for unknown query %q", rep.Slot, id)
			continue
		}
		if o.Payment > b*(1+1e-9) || math.IsNaN(o.Payment) || math.IsNaN(o.Value) {
			out.problem("slot %d: query %q paid %v against a budget of %v (value %v)", rep.Slot, id, o.Payment, b, o.Value)
		}
	}
	if math.IsNaN(rep.Welfare) || math.IsInf(rep.Welfare, 0) {
		out.problem("slot %d: welfare %v", rep.Slot, rep.Welfare)
	}
}

// insetBoxes returns each shard's bounds shrunk by m: a query whose
// footprint (location or region padded by dmax) stays inside its box is
// resident in that shard.
func insetBoxes(w *ps.World, shards int, m float64) []ps.Rect {
	part := ps.NewGridPartition(w.Working, shards)
	boxes := make([]ps.Rect, part.NumShards())
	for k := range boxes {
		b := part.ShardBounds(k)
		boxes[k] = ps.NewRect(b.MinX+m, b.MinY+m, b.MaxX-m, b.MaxY-m)
	}
	return boxes
}
