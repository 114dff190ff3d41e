package ps

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Errors surfaced by the streaming Engine.
var (
	// ErrQueueFull reports that a submission was rejected because the
	// engine's bounded ingest queue was at capacity (backpressure).
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineStopped reports a submission to (or a subscription cut off
	// by) a stopped engine.
	ErrEngineStopped = engine.ErrStopped
	// ErrShed reports a submission that was accepted into the ingest
	// queue but evicted by the shed-oldest overflow policy before going
	// live (see WithShedOldest). It wraps ErrQueueFull, so callers
	// treating every overload rejection alike can keep testing
	// errors.Is(err, ErrQueueFull); errors.Is(err, ErrShed) isolates the
	// shed case.
	ErrShed = fmt.Errorf("ps: submission shed under overload: %w", engine.ErrQueueFull)
	// ErrCanceled marks a subscription ended by QueryHandle.Cancel.
	ErrCanceled = errors.New("ps: query canceled")
	// ErrDuplicateQueryID rejects a submission whose ID is already live.
	ErrDuplicateQueryID = errors.New("ps: duplicate query id")
)

// SlotResult is the payload of one SlotUpdate event: the query's outcome
// for one executed slot it was live for.
type SlotResult struct {
	// Slot is the executed slot number.
	Slot int
	// Answered reports whether the query was served this slot: it
	// obtained positive value, or — for continuous queries — a satisfied
	// sample whose valuation delta may round to zero.
	Answered bool
	// Value is the valuation obtained this slot, Payment what it paid.
	Value   float64
	Payment float64
	// Events carries this query's event-detection evaluations, if any.
	Events []EventNotification
	// Final marks the last slot of the query's window; an EventFinal
	// frame follows this result on the stream.
	Final bool
}

// QueryHandle is the submitting client's view of a live query: a thin
// wrapper over the query's primary event Subscription plus cancellation.
// The stream delivers Accepted, then one SlotUpdate per executed slot
// the query is live for, then Final (normal expiry) or Canceled; see
// Subscription for the slow-consumer policy. Additional observers attach
// with Engine.Watch.
type QueryHandle struct {
	id  string
	eng *Engine
	sub *Subscription
}

// ID returns the query's identifier.
func (h *QueryHandle) ID() string { return h.id }

// Events returns the handle's event stream (see Subscription.Events).
func (h *QueryHandle) Events() <-chan QueryEvent { return h.sub.Events() }

// Subscription returns the handle's underlying subscription.
func (h *QueryHandle) Subscription() *Subscription { return h.sub }

// Err explains why the stream ended: nil after normal expiry,
// ErrCanceled, ErrEngineStopped, or a submission error such as
// ErrDuplicateQueryID. Only valid once Events is closed.
func (h *QueryHandle) Err() error { return h.sub.Err() }

// Cancel withdraws the query before its next slot and terminates every
// attached subscription with a Canceled event (Err reports ErrCanceled).
// Canceling an already-finished query is a no-op. The returned error
// reports only enqueue failure of the cancellation itself (queue full or
// engine stopped).
func (h *QueryHandle) Cancel() error {
	e := h.eng
	return e.loop.Do(e.timedIngest(func() {
		if !e.hub.cancel(h.id, h.sub, ErrCanceled, time.Now()) {
			return // already expired, replaced, or canceled
		}
		e.agg.CancelQuery(h.id)
		e.count(&e.m.QueriesCanceled)
	}))
}

// EngineMetrics is a point-in-time snapshot of the engine's counters.
type EngineMetrics struct {
	// Slots executed and the last executed slot number.
	Slots    int
	LastSlot int
	// Welfare, payments, cost and sensor usage accumulated over all slots.
	TotalWelfare  float64
	LastWelfare   float64
	TotalPayments float64
	TotalCost     float64
	SensorsUsed   int64
	// Query lifecycle counters: Submitted counts queries that became
	// live; Rejected counts submissions that never did (queue overflow,
	// duplicate ID, registration error).
	QueriesSubmitted int64
	QueriesRejected  int64
	// QueriesShed counts submissions accepted into the ingest queue but
	// evicted by the shed-oldest overflow policy before going live (not
	// included in QueriesRejected — a shed submission was admitted, then
	// sacrificed to newer work).
	QueriesShed     int64
	QueriesCanceled int64
	ActiveQueries   int
	// Per-(query, slot) delivery counters: Answered counts results with
	// positive value, Starved results delivered with none.
	Answered int64
	Starved  int64
	// EventsDelivered counts events handed to subscriber buffers across
	// all subscriptions; EventsDropped counts events evicted from a slow
	// subscriber's buffer (each run of evictions is summarized by one of
	// the GapEvents frames).
	EventsDelivered int64
	EventsDropped   int64
	GapEvents       int64
	// Selection instrumentation accumulated over all slots: valuation
	// calls the greedy core made, what an exhaustive scan would have
	// made (their difference is the lazy loop's pruning), lazy-heap
	// re-evaluations and non-submodular fallback rescans.
	ValuationCalls          int64
	ValuationCallsSaved     int64
	LazyReevaluations       int64
	SubmodularityViolations int64
	FallbackRescans         int64
	// Valuation-cache instrumentation (see core.SelectionStats): probe
	// counts of the per-sensor footprint-geometry caches and the GP
	// base-posterior observation accounting (rank-1 appends vs exact
	// from-scratch rebuilds).
	GeomCacheHits     int64
	GeomCacheLookups  int64
	PosteriorAppends  int64
	PosteriorRebuilds int64
	// Shards is the cumulative per-shard breakdown when the engine drives
	// a ShardedAggregator (the last entry is the spanning pass); nil on an
	// unsharded engine.
	Shards []ShardStats
	// SlotStages is the cumulative per-stage slot latency breakdown, in
	// first-seen pipeline order (ingest, offer_gather, selection or the
	// sharded passes, commit, accounting, publish). Empty until the first
	// slot executes.
	SlotStages []StageStats
	// Ingest queue occupancy and slot execution latency.
	QueueDepth      int
	QueueCap        int
	SlotLatencyLast time.Duration
	SlotLatencyAvg  time.Duration
	SlotLatencyMax  time.Duration
}

type engineConfig struct {
	interval    time.Duration
	queueSize   int
	blockOnFull bool
	shedOldest  bool
	eventBuffer int
	drainSlots  int
	logger      *slog.Logger
}

// EngineOption customizes an Engine.
type EngineOption func(*engineConfig)

// WithSlotInterval attaches a real-time slot clock ticking every d. The
// default is no clock: slots run only through RunSlots (virtual time,
// used by tests, backtesting and benchmarks).
func WithSlotInterval(d time.Duration) EngineOption {
	return func(c *engineConfig) { c.interval = d }
}

// WithQueueSize bounds the ingest queue (default 1024 submissions).
func WithQueueSize(n int) EngineOption {
	return func(c *engineConfig) { c.queueSize = n }
}

// WithBlockingSubmit makes submissions wait for queue space instead of
// failing fast with ErrQueueFull.
func WithBlockingSubmit() EngineOption {
	return func(c *engineConfig) { c.blockOnFull = true }
}

// WithShedOldest makes a full ingest queue evict its oldest still-queued
// submission to admit the new one — the evicted query's stream closes
// with ErrShed and EngineMetrics.QueriesShed (ps_shed_total) counts it.
// Under sustained overload this keeps admission latency flat and sheds
// the work that has already waited longest, instead of rejecting all
// fresh work (the default) or stalling submitters (WithBlockingSubmit,
// which this option overrides). Only submissions are sheddable; cancels
// and RunSlots commands are never evicted, though
// shedding may delay them behind newer submissions. Intended for
// real-clock serving engines.
func WithShedOldest() EngineOption {
	return func(c *engineConfig) { c.shedOldest = true }
}

// WithEventBuffer sets each subscription's event buffer (default 16,
// minimum 2 — a Gap frame must fit in front of the event that displaced
// it).
func WithEventBuffer(n int) EngineOption {
	return func(c *engineConfig) {
		if n > 0 {
			c.eventBuffer = n
		}
	}
}

// WithDrainSlots caps how many extra slots Stop runs to drain in-flight
// queries before force-closing their subscriptions (default 64).
func WithDrainSlots(n int) EngineOption {
	return func(c *engineConfig) { c.drainSlots = n }
}

// WithLogger attaches a structured logger. The engine emits a per-slot
// summary at Debug level (slot, welfare, sensors, stage latencies); no
// logging happens on the hot path unless the handler enables Debug. Nil
// (the default) disables logging.
func WithLogger(l *slog.Logger) EngineOption {
	return func(c *engineConfig) { c.logger = l }
}

// queryRuntime is the execution backend surface the Engine drives: slot
// execution plus the query lifecycle. Aggregator (single-world) and
// ShardedAggregator (geo-sharded, shard.go) both satisfy it.
type queryRuntime interface {
	slotRunner
	Submit(Spec) (SubmittedQuery, error)
	CancelQuery(id string) bool
}

// Engine is the concurrent, slot-clocked serving layer over an
// Aggregator (or a geo-sharded ShardedAggregator). Submissions from any
// goroutine become non-blocking enqueues onto a bounded queue; a single
// event-loop goroutine owns the aggregator, executes slots as the clock
// ticks, and publishes each SlotReport through the subscription hub —
// one typed event stream per query, any number of subscribers each. The
// aggregator (and its World) must not be used directly once handed to an
// Engine.
type Engine struct {
	agg    queryRuntime
	runner slotRunner
	loop   *engine.Loop[*SlotReport]
	hub    *hub

	drainSlots int

	obs *engineObs
	// log is nil unless WithLogger was given; onSlot guards every use.
	log *slog.Logger
	// ingestNanos accumulates time spent executing queued submissions and
	// cancels between slots; onSlot drains it into the "ingest" stage.
	ingestNanos atomic.Int64
	// stageIdx maps stage name -> index into m.SlotStages (guarded by mu).
	stageIdx map[string]int

	mu sync.Mutex
	m  EngineMetrics
}

// NewEngine wraps an aggregator into a streaming engine. Call Start to
// begin serving, then submit queries from any number of goroutines.
func NewEngine(agg *Aggregator, opts ...EngineOption) *Engine {
	return newEngine(agg, opts)
}

// NewShardedEngine wraps a geo-sharded aggregator into a streaming
// engine: the same serving surface as NewEngine, with every slot executed
// as concurrent per-shard passes plus cross-shard reconciliation, and
// EngineMetrics carrying the per-shard breakdown.
func NewShardedEngine(agg *ShardedAggregator, opts ...EngineOption) *Engine {
	return newEngine(agg, opts)
}

func newEngine(agg queryRuntime, opts []EngineOption) *Engine {
	cfg := engineConfig{queueSize: 1024, eventBuffer: 16, drainSlots: 64}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		agg:        agg,
		runner:     agg,
		hub:        newHub(cfg.eventBuffer),
		drainSlots: cfg.drainSlots,
		log:        cfg.logger,
		stageIdx:   make(map[string]int),
	}
	e.obs = newEngineObs(e)
	e.hub.obs = &e.obs.hub
	lc := engine.Config{QueueSize: cfg.queueSize}
	if cfg.blockOnFull {
		lc.Overflow = engine.OverflowBlock
	}
	if cfg.shedOldest {
		lc.Overflow = engine.OverflowShedOldest
	}
	if cfg.interval > 0 {
		lc.Clock = engine.NewRealClock(cfg.interval)
	}
	e.loop = engine.New[*SlotReport](e.runner, lc, e.onSlot, e.drain)
	return e
}

// Start launches the event loop (and the slot clock, if configured).
func (e *Engine) Start() { e.loop.Start() }

// Stop shuts down gracefully: new submissions are refused, queued ones are
// processed, then the engine keeps running slots (up to the drain cap)
// while live queries remain, so in-flight continuous queries finish.
// Whatever is still live after the cap is closed with ErrEngineStopped.
// Stop blocks until the loop goroutine exits.
func (e *Engine) Stop() { e.loop.Stop() }

// RunSlots synchronously executes n slots on the event loop and returns
// when they have all run — the virtual/fast-forward clock used by tests,
// backtesting and load generation. It composes with a real clock, but is
// typically used instead of one.
func (e *Engine) RunSlots(n int) error { return e.loop.StepSlots(n) }

// Flush blocks until every submission enqueued before the call has been
// applied to the aggregator. No slot is executed.
func (e *Engine) Flush() error { return e.loop.StepSlots(0) }

// QueueStats reports the ingest queue's current depth and capacity — the
// cheap snapshot admission layers poll on every request, without copying
// the full EngineMetrics.
func (e *Engine) QueueStats() (depth, capacity int) {
	s := e.loop.Stats()
	return s.QueueDepth, s.QueueCap
}

// Metrics returns a snapshot of the engine-wide counters.
func (e *Engine) Metrics() EngineMetrics {
	s := e.loop.Stats()
	e.mu.Lock()
	m := e.m
	m.Shards = append([]ShardStats(nil), e.m.Shards...)
	m.SlotStages = append([]StageStats(nil), e.m.SlotStages...)
	e.mu.Unlock()
	m.ActiveQueries = e.hub.liveCount()
	m.GapEvents = e.hub.gapCount()
	m.Slots = s.Slots
	m.QueueDepth = s.QueueDepth
	m.QueueCap = s.QueueCap
	m.SlotLatencyLast = s.SlotLast
	m.SlotLatencyAvg = s.SlotAvg()
	m.SlotLatencyMax = s.SlotMax
	return m
}

// count increments one EngineMetrics counter under the metrics mutex.
func (e *Engine) count(c *int64) {
	e.mu.Lock()
	*c++
	e.mu.Unlock()
}

// timedIngest wraps a queued command so the time the loop spends
// executing it is attributed to the next slot's "ingest" stage.
func (e *Engine) timedIngest(fn func()) func() {
	return func() {
		start := time.Now()
		fn()
		e.ingestNanos.Add(int64(time.Since(start)))
	}
}

// Submit validates and submits any query spec from any goroutine and
// returns its subscription handle. The spec is validated and materialized
// on the event-loop goroutine, so a continuous spec's start slot is bound
// to the slot clock at execution time — slots ticking between enqueue and
// execution shift the window instead of silently shortening it. A spec
// rejected by validation (or a world precondition such as region
// monitoring's GP model) closes the handle's stream immediately with the
// error (see QueryHandle.Err); transports that want a synchronous verdict
// call Spec.Validate first.
func (e *Engine) Submit(spec Spec) (*QueryHandle, error) {
	if isNilSpec(spec) {
		return nil, errNilSpec
	}
	id := spec.QueryID()
	h := &QueryHandle{id: id, eng: e, sub: e.hub.newSubscription(id)}
	err := e.loop.DoSheddable(e.timedIngest(func() {
		if e.hub.live(id) {
			h.fail(ErrDuplicateQueryID)
			e.count(&e.m.QueriesRejected)
			return
		}
		sq, err := e.agg.Submit(spec)
		if err != nil {
			h.fail(err)
			e.count(&e.m.QueriesRejected)
			return
		}
		e.hub.register(id, sq.Start, sq.End, h.sub, time.Now())
		e.count(&e.m.QueriesSubmitted)
	}), func() {
		// Shed by the overflow policy before the submission ran (see
		// WithShedOldest): close the never-attached stream so the
		// submitter's consumer observes a terminal verdict, and account
		// the eviction. Runs on whichever goroutine's enqueue caused the
		// shed; h.fail only takes hub.mu, safe off the loop goroutine.
		h.fail(ErrShed)
		e.count(&e.m.QueriesShed)
	})
	if err != nil {
		e.count(&e.m.QueriesRejected)
		return nil, err
	}
	return h, nil
}

// fail closes the handle's never-attached stream with err. Safe from
// any goroutine (it only takes hub.mu); called from the loop goroutine
// for submission failures and from the shedding goroutine for evictions.
func (h *QueryHandle) fail(err error) {
	h.eng.hub.mu.Lock()
	h.sub.closeLocked(err)
	h.eng.hub.mu.Unlock()
}

// Watch attaches an additional subscriber to a live query's event
// stream: the returned subscription opens with the query's Accepted
// event and then delivers every event published after the attach
// (Subscription.JoinCursor reports the cursor boundary, so a transport
// can replay older history from its own store). Watching does not confer
// cancellation rights. Safe from any goroutine; a query that is unknown,
// already finished, or canceled returns ErrUnknownQuery.
func (e *Engine) Watch(id string) (*Subscription, error) {
	return e.hub.watch(id)
}

// onSlot publishes a slot report through the subscription hub and
// updates the engine-wide metrics. dur is the loop's authoritative
// end-to-end slot latency (it covers the aggregator's RunSlot; the hub
// publish below is timed separately). Loop goroutine only.
func (e *Engine) onSlot(rep *SlotReport, dur time.Duration) {
	var events map[string][]EventNotification
	if len(rep.Events) > 0 {
		events = make(map[string][]EventNotification, len(rep.Events))
		for _, ev := range rep.Events {
			events[ev.QueryID] = append(events[ev.QueryID], ev)
		}
	}
	pubStart := time.Now()
	st := e.hub.publishSlot(rep, events, pubStart)
	publishDur := time.Since(pubStart)

	// Assemble the slot's full stage trace: ingest work drained since the
	// previous slot, the aggregator's own trace, then the hub fan-out.
	stages := make([]StageTiming, 0, len(rep.Stages)+2)
	stages = append(stages, StageTiming{Stage: StageIngest, Duration: time.Duration(e.ingestNanos.Swap(0))})
	stages = append(stages, rep.Stages...)
	stages = append(stages, StageTiming{Stage: StagePublish, Duration: publishDur})

	e.mu.Lock()
	e.m.LastSlot = rep.Slot
	e.m.LastWelfare = rep.Welfare
	e.m.ValuationCalls += rep.Selection.ValuationCalls
	e.m.ValuationCallsSaved += rep.Selection.SavedCalls()
	e.m.LazyReevaluations += rep.Selection.LazyReevaluations
	e.m.SubmodularityViolations += rep.Selection.SubmodularityViolations
	e.m.FallbackRescans += rep.Selection.FallbackRescans
	e.m.GeomCacheHits += rep.Selection.GeomCacheHits
	e.m.GeomCacheLookups += rep.Selection.GeomCacheLookups
	e.m.PosteriorAppends += rep.Selection.PosteriorAppends
	e.m.PosteriorRebuilds += rep.Selection.PosteriorRebuilds
	if len(rep.Shards) > 0 {
		if len(e.m.Shards) != len(rep.Shards) {
			e.m.Shards = make([]ShardStats, len(rep.Shards))
			for i, s := range rep.Shards {
				e.m.Shards[i].Shard = s.Shard
				e.m.Shards[i].Spanning = s.Spanning
			}
		}
		for i, s := range rep.Shards {
			e.m.Shards[i].accumulate(s)
		}
	}
	e.m.TotalWelfare += rep.Welfare
	e.m.TotalCost += rep.TotalCost
	e.m.TotalPayments += st.payments
	e.m.SensorsUsed += int64(rep.SensorsUsed)
	e.m.Answered += st.answered
	e.m.Starved += st.starved
	e.m.EventsDelivered += st.delivered
	e.m.EventsDropped += st.dropped
	e.accumulateStages(stages)
	e.mu.Unlock()

	e.observeSlot(dur, st, stages)

	if e.log != nil && e.log.Enabled(context.Background(), slog.LevelDebug) {
		attrs := []any{
			"slot", rep.Slot,
			"welfare", rep.Welfare,
			"sensors", rep.SensorsUsed,
			"active", e.hub.liveCount(),
			"duration", dur,
		}
		for _, sp := range stages {
			attrs = append(attrs, "stage_"+sp.Stage, sp.Duration)
		}
		e.log.Debug("slot executed", attrs...)
	}
}

// drain is the Stop-time finalizer: it keeps executing slots while live
// queries remain (bounded by the drain cap), then force-closes whatever
// is left. Loop goroutine only.
func (e *Engine) drain(step func()) {
	for i := 0; i < e.drainSlots && e.hub.liveCount() > 0; i++ {
		step()
	}
	e.hub.closeAll(ErrEngineStopped, time.Now())
}
