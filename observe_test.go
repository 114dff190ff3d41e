package ps

import (
	"strconv"
	"strings"
	"testing"
)

// The unsharded slot trace covers the canonical stage set in pipeline
// order, and the engine prepends ingest / appends publish before
// accumulating into EngineMetrics.SlotStages.
func TestSlotStageTraceUnsharded(t *testing.T) {
	w := NewRWMWorld(7, 200, SensorConfig{})
	eng := NewEngine(NewAggregator(w))
	eng.Start()
	defer eng.Stop()

	if _, err := eng.Submit(PointSpec{ID: "q1", Loc: Pt(30, 30), Budget: 50}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlots(3); err != nil {
		t.Fatal(err)
	}

	m := eng.Metrics()
	want := []string{StageIngest, StageOfferGather, StageSelection, StageCommit, StageAccounting, StagePublish}
	if len(m.SlotStages) != len(want) {
		t.Fatalf("SlotStages = %+v, want stages %v", m.SlotStages, want)
	}
	for i, s := range m.SlotStages {
		if s.Stage != want[i] {
			t.Errorf("stage[%d] = %q, want %q", i, s.Stage, want[i])
		}
		if s.Count != 3 {
			t.Errorf("stage %q count = %d, want 3", s.Stage, s.Count)
		}
		if s.Total < s.Max || s.Max < s.Last {
			t.Errorf("stage %q has inconsistent totals: %+v", s.Stage, s)
		}
	}

	// The aggregator's stages are sub-intervals of RunSlot, which is what
	// the loop's slot latency measures — their sum can never exceed it.
	// Ingest and publish are engine stages outside that window.
	var sum int64
	for _, s := range m.SlotStages {
		if s.Stage == StageIngest || s.Stage == StagePublish {
			continue
		}
		sum += int64(s.Total)
	}
	if outer := int64(m.SlotLatencyAvg) * int64(m.Slots); sum > outer {
		t.Errorf("aggregator stage total %d > cumulative slot latency %d", sum, outer)
	}
}

func TestSlotStageTraceSharded(t *testing.T) {
	w := NewRWMWorld(8, 200, SensorConfig{})
	eng := NewShardedEngine(NewShardedAggregator(w, 4))
	eng.Start()
	defer eng.Stop()
	if err := eng.RunSlots(2); err != nil {
		t.Fatal(err)
	}

	m := eng.Metrics()
	want := []string{StageIngest, StageOfferGather, StageRoute, StageShardSelect,
		StageSpanning, StageReconcile, StageCommit, StageAccounting, StagePublish}
	if len(m.SlotStages) != len(want) {
		t.Fatalf("SlotStages = %+v, want stages %v", m.SlotStages, want)
	}
	for i, s := range m.SlotStages {
		if s.Stage != want[i] {
			t.Errorf("stage[%d] = %q, want %q", i, s.Stage, want[i])
		}
	}
}

// The engine's registry carries the slot/stage histograms and hub
// gauges, passes the naming lint, and renders as Prometheus text.
func TestEngineObservabilityRegistry(t *testing.T) {
	w := NewRWMWorld(9, 200, SensorConfig{})
	eng := NewEngine(NewAggregator(w))
	eng.Start()
	defer eng.Stop()
	h, err := eng.Submit(PointSpec{ID: "q1", Loc: Pt(30, 30), Budget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlots(2); err != nil {
		t.Fatal(err)
	}
	for range h.Events() { // drain to stream end
	}

	reg := eng.Observability()
	if err := reg.Validate(); err != nil {
		t.Fatalf("metric naming: %v", err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ps_slots_total 2",
		`ps_slot_stage_duration_seconds_bucket{stage="selection",le="+Inf"} 2`,
		"ps_queries_submitted_total 1",
		"# TYPE ps_hub_subscriber_lag_events gauge",
		"# TYPE ps_query_lifetime_seconds histogram",
		"ps_query_lifetime_seconds_count 1",
		"ps_query_time_to_first_update_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// funcFamilies lists every engine family the registry renders from the
// owning state at scrape time, with the EngineMetrics field that state
// also feeds.
var funcFamilies = []struct {
	name  string
	field func(EngineMetrics) float64
}{
	{"ps_slots_total", func(m EngineMetrics) float64 { return float64(m.Slots) }},
	{"ps_welfare", func(m EngineMetrics) float64 { return m.TotalWelfare }},
	{"ps_slot_welfare", func(m EngineMetrics) float64 { return m.LastWelfare }},
	{"ps_payments_total", func(m EngineMetrics) float64 { return m.TotalPayments }},
	{"ps_cost_total", func(m EngineMetrics) float64 { return m.TotalCost }},
	{"ps_sensors_used_total", func(m EngineMetrics) float64 { return float64(m.SensorsUsed) }},
	{"ps_queries_submitted_total", func(m EngineMetrics) float64 { return float64(m.QueriesSubmitted) }},
	{"ps_queries_rejected_total", func(m EngineMetrics) float64 { return float64(m.QueriesRejected) }},
	{"ps_shed_total", func(m EngineMetrics) float64 { return float64(m.QueriesShed) }},
	{"ps_queries_canceled_total", func(m EngineMetrics) float64 { return float64(m.QueriesCanceled) }},
	{"ps_queries_active", func(m EngineMetrics) float64 { return float64(m.ActiveQueries) }},
	{"ps_results_answered_total", func(m EngineMetrics) float64 { return float64(m.Answered) }},
	{"ps_results_starved_total", func(m EngineMetrics) float64 { return float64(m.Starved) }},
	{"ps_events_delivered_total", func(m EngineMetrics) float64 { return float64(m.EventsDelivered) }},
	{"ps_events_dropped_total", func(m EngineMetrics) float64 { return float64(m.EventsDropped) }},
	{"ps_valuation_calls_total", func(m EngineMetrics) float64 { return float64(m.ValuationCalls) }},
	{"ps_ingest_queue_depth", func(m EngineMetrics) float64 { return float64(m.QueueDepth) }},
	{"ps_ingest_queue_capacity", func(m EngineMetrics) float64 { return float64(m.QueueCap) }},
	{"ps_hub_gap_frames_total", func(m EngineMetrics) float64 { return float64(m.GapEvents) }},
}

// requireExpositionAgrees scrapes the engine's registry and checks every
// func-rendered family against the EngineMetrics snapshot, exactly.
func requireExpositionAgrees(t *testing.T, eng *Engine, when string) EngineMetrics {
	t.Helper()
	var b strings.Builder
	if err := eng.Observability().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: sample %q: %v", when, line, err)
		}
		samples[name] = v
	}
	m := eng.Metrics()
	for _, f := range funcFamilies {
		got, ok := samples[f.name]
		if !ok {
			t.Errorf("%s: %s missing from the exposition", when, f.name)
			continue
		}
		if want := f.field(m); got != want {
			t.Errorf("%s: %s = %v, EngineMetrics says %v", when, f.name, got, want)
		}
	}
	return m
}

// The exposition and Engine.Metrics read one store, so they agree at
// every point of an engine's life: before the first slot, after
// submits, a duplicate-ID reject, a cancel and buffer evictions, and
// after a Stop that force-closed a live query at the drain cap.
func TestExpositionAgreesWithEngineMetrics(t *testing.T) {
	w := NewRWMWorld(11, 200, SensorConfig{})
	eng := NewEngine(NewAggregator(w), WithDrainSlots(1), WithEventBuffer(2))
	eng.Start()
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := requireExpositionAgrees(t, eng, "fresh"); m.QueueCap != 1024 {
		t.Fatalf("fresh QueueCap = %d, want the default 1024", m.QueueCap)
	}

	// Handles stay unread, so their 2-event buffers overflow into Gap
	// frames.
	var ev *QueryHandle
	for _, spec := range []Spec{
		PointSpec{ID: "p", Loc: Pt(30, 30), Budget: 50},
		LocationMonitoringSpec{ID: "lm", Loc: Pt(40, 40), Duration: 50, Budget: 200, Samples: 5},
		EventDetectionSpec{ID: "ev", Loc: Pt(35, 35), Duration: 10, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 20},
		PointSpec{ID: "lm", Loc: Pt(30, 30), Budget: 50}, // duplicate of a live ID
	} {
		h, err := eng.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.QueryID() == "ev" {
			ev = h
		}
	}
	if err := eng.RunSlots(3); err != nil {
		t.Fatal(err)
	}
	if err := ev.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlots(1); err != nil {
		t.Fatal(err)
	}
	m := requireExpositionAgrees(t, eng, "after slots")
	if m.QueriesRejected != 1 || m.QueriesCanceled != 1 || m.ActiveQueries != 1 || m.GapEvents == 0 {
		t.Fatalf("workload missed a reject, cancel, live query or eviction: %+v", m)
	}

	// The 50-slot monitor outlives the one drain slot and is force-closed.
	eng.Stop()
	if m := requireExpositionAgrees(t, eng, "after Stop"); m.ActiveQueries != 0 {
		t.Fatalf("ActiveQueries = %d after Stop, want 0", m.ActiveQueries)
	}
}
