package ps

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// StageTiming is one named stage of a slot's execution — the span-style
// trace the aggregator records while running a slot (offer gathering,
// selection, commit, ...) plus the engine-level stages wrapped around it
// (ingest drain, hub publish). SlotReport.Stages carries one slot's
// trace; EngineMetrics.SlotStages the accumulation across slots.
type StageTiming = obs.Span

// Canonical stage names, in pipeline order. The unsharded pipeline
// records gather/selection/commit/accounting; the sharded pipeline
// replaces selection with route/shard_select/spanning/reconcile; the
// engine wraps both with ingest and publish.
const (
	StageIngest      = "ingest"       // submissions/cancels drained between slots
	StageMembership  = "membership"   // cluster: fact-TTL sweep
	StageOfferGather = "offer_gather" // Fleet.Step: collecting sensor offers
	StageRoute       = "route"        // sharded: routing offers to shards
	StageSelection   = "selection"    // unsharded: the full selection pass
	StageShardSelect = "shard_select" // sharded: concurrent per-shard passes
	StageLaneRPC     = "lane_rpc"     // cluster: residual wait on remote partials
	StageGather      = "gather"       // cluster: binding wire partials for the merge
	StageSpanning    = "spanning"     // sharded: cross-shard residual pass
	StageReconcile   = "reconcile"    // sharded: deterministic merge
	StageCommit      = "commit"       // Fleet.Commit: data acquisition
	StageAccounting  = "accounting"   // ledger, stats, retirement
	StagePublish     = "publish"      // hub fan-out of the slot report
)

// StageStats is one stage's cumulative timing across executed slots.
type StageStats struct {
	Stage string
	Count int64
	Total time.Duration
	Last  time.Duration
	Max   time.Duration
}

// engineObs bundles the engine's registry with the handles of the
// values only the registry holds: the histograms, observed where the
// measurement happens, and the hub backlog gauges, set at each slot
// publish. A counter or gauge whose value EngineMetrics, the hub or the
// ingest loop owns is a func family read from that owner at scrape
// time, so each value is stored once and the exposition cannot disagree
// with Engine.Metrics.
type engineObs struct {
	reg *obs.Registry

	slotDuration  *obs.Histogram
	stageDuration *obs.HistogramVec

	hubSubscribers *obs.Gauge
	hubLag         *obs.Gauge
	hubOccupancy   *obs.Gauge

	hub hubObs
}

// hubObs is the slice of engineObs the hub touches directly: histograms
// observed at eviction and lifecycle boundaries, under hub.mu (each
// observation is a couple of atomic ops).
type hubObs struct {
	evictionRun *obs.Histogram
	firstUpdate *obs.Histogram
	lifetime    *obs.Histogram
}

// newEngineObs registers the engine's families on a fresh registry. The
// func families close over e and read it only at scrape time, after
// newEngine has finished wiring it.
func newEngineObs(e *Engine) *engineObs {
	r := obs.NewRegistry()
	o := &engineObs{reg: r}

	r.CounterFunc("ps_slots_total", "Time slots executed.",
		func() float64 { return float64(e.loop.Stats().Slots) })
	o.slotDuration = r.Histogram("ps_slot_duration_seconds",
		"End-to-end slot execution latency.", nil)
	o.stageDuration = r.HistogramVec("ps_slot_stage_duration_seconds",
		"Per-stage slot latency breakdown (ingest, offer_gather, selection/shard passes, commit, accounting, publish).",
		nil, "stage")

	// Cumulative welfare is a gauge: per-slot welfare is not
	// structurally non-negative.
	r.GaugeFunc("ps_welfare", "Cumulative social welfare over all executed slots.",
		locked(&e.mu, &e.m.TotalWelfare))
	r.GaugeFunc("ps_slot_welfare", "Social welfare of the last executed slot.",
		locked(&e.mu, &e.m.LastWelfare))
	r.CounterFunc("ps_payments_total", "Cumulative payments collected from queries.",
		locked(&e.mu, &e.m.TotalPayments))
	r.CounterFunc("ps_cost_total", "Cumulative cost of acquired sensor readings.",
		locked(&e.mu, &e.m.TotalCost))
	r.CounterFunc("ps_sensors_used_total", "Sensor readings acquired over all slots.",
		locked(&e.mu, &e.m.SensorsUsed))

	r.CounterFunc("ps_queries_submitted_total", "Queries that became live.",
		locked(&e.mu, &e.m.QueriesSubmitted))
	r.CounterFunc("ps_queries_rejected_total", "Submissions rejected before going live (validation, duplicate ID, queue overflow).",
		locked(&e.mu, &e.m.QueriesRejected))
	r.CounterFunc("ps_shed_total", "Queued submissions evicted by the shed-oldest overflow policy to admit newer work.",
		locked(&e.mu, &e.m.QueriesShed))
	r.CounterFunc("ps_queries_canceled_total", "Live queries withdrawn by their issuer.",
		locked(&e.mu, &e.m.QueriesCanceled))
	r.GaugeFunc("ps_queries_active", "Currently live queries.",
		func() float64 { return float64(e.hub.liveCount()) })
	r.CounterFunc("ps_results_answered_total", "Per-(query, slot) results delivered with value or a satisfied sample.",
		locked(&e.mu, &e.m.Answered))
	r.CounterFunc("ps_results_starved_total", "Per-(query, slot) results delivered with nothing obtained.",
		locked(&e.mu, &e.m.Starved))

	r.CounterFunc("ps_events_delivered_total", "Events handed to subscriber buffers.",
		locked(&e.mu, &e.m.EventsDelivered))
	r.CounterFunc("ps_events_dropped_total", "Events evicted from slow subscriber buffers.",
		locked(&e.mu, &e.m.EventsDropped))

	o.hubSubscribers = r.Gauge("ps_hub_subscribers",
		"Attached subscriptions across all live topics.")
	o.hubLag = r.Gauge("ps_hub_subscriber_lag_events",
		"Largest per-subscriber buffered-event backlog observed at the last slot publish.")
	o.hubOccupancy = r.Gauge("ps_hub_buffer_occupancy_ratio",
		"Buffered events across all subscribers over total buffer capacity, at the last slot publish.")

	r.CounterFunc("ps_valuation_calls_total", "Marginal-valuation evaluations made by the greedy selection core.",
		locked(&e.mu, &e.m.ValuationCalls))

	r.GaugeFunc("ps_ingest_queue_depth", "Commands waiting in the engine's bounded ingest queue.",
		func() float64 { return float64(e.loop.Stats().QueueDepth) })
	r.GaugeFunc("ps_ingest_queue_capacity", "Capacity of the engine's ingest queue.",
		func() float64 { return float64(e.loop.Stats().QueueCap) })

	r.CounterFunc("ps_hub_gap_frames_total", "Gap frames emitted to slow subscribers.",
		func() float64 { return float64(e.hub.gapCount()) })
	o.hub = hubObs{
		evictionRun: r.Histogram("ps_hub_eviction_run_size",
			"Events summarized by one Gap frame (size of each eviction run).", obs.SizeBuckets),
		firstUpdate: r.Histogram("ps_query_time_to_first_update_seconds",
			"Latency from query acceptance to its first slot update.", nil),
		lifetime: r.Histogram("ps_query_lifetime_seconds",
			"Latency from query acceptance to its terminal event (final or canceled).", nil),
	}
	return o
}

// locked returns a scrape-time reader of one EngineMetrics field, read
// under the engine's metrics mutex.
func locked[T int64 | float64](mu *sync.Mutex, field *T) func() float64 {
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return float64(*field)
	}
}

// Observability returns the engine's metric registry — every counter,
// gauge and histogram the engine, hub and aggregation layers record.
// The serve layer renders it at GET /metrics (Prometheus text format)
// and registers its own HTTP metrics on it. The returned value is
// shared, not a snapshot; it is safe for concurrent use.
func (e *Engine) Observability() *obs.Registry { return e.obs.reg }

// observeSlot records one executed slot's latency histograms and the
// hub backlog gauges — the values no other struct holds. stages is the
// slot's full stage list (ingest + aggregator trace + publish); the
// caller holds no lock.
func (e *Engine) observeSlot(dur time.Duration, st slotDelivery, stages []StageTiming) {
	o := e.obs
	o.slotDuration.Observe(dur.Seconds())
	for _, s := range stages {
		o.stageDuration.With(s.Stage).Observe(s.Duration.Seconds())
	}

	o.hubSubscribers.Set(float64(st.subscribers))
	o.hubLag.Set(float64(st.maxLag))
	if st.bufCap > 0 {
		o.hubOccupancy.Set(float64(st.buffered) / float64(st.bufCap))
	} else {
		o.hubOccupancy.Set(0)
	}
}

// accumulateStages folds a slot's stage trace into the running
// EngineMetrics.SlotStages. Caller holds e.mu.
func (e *Engine) accumulateStages(stages []StageTiming) {
	for _, s := range stages {
		i, ok := e.stageIdx[s.Stage]
		if !ok {
			i = len(e.m.SlotStages)
			e.stageIdx[s.Stage] = i
			e.m.SlotStages = append(e.m.SlotStages, StageStats{Stage: s.Stage})
		}
		ss := &e.m.SlotStages[i]
		ss.Count++
		ss.Total += s.Duration
		ss.Last = s.Duration
		if s.Duration > ss.Max {
			ss.Max = s.Duration
		}
	}
}
