// Package serve implements the psserve HTTP API over a streaming
// ps.Engine: query submission (single and batch), server-pushed result
// streams, polling, cancellation, registry listing and engine metrics.
// The cmd/psserve daemon is a thin
// flag-parsing wrapper around it; tests and the psclient SDK run the
// same handler behind net/http/httptest.
//
// Endpoints:
//
//	POST   /query          submit a query (legacy or v1-envelope JSON
//	                       body, see package wire)
//	POST   /queries:batch  submit up to wire.MaxBatch specs in one
//	                       request; per-spec accept/reject verdicts
//	GET    /watch?id=&cursor=
//	                       server-pushed event stream (NDJSON, or SSE
//	                       with Accept: text/event-stream): v2 frames
//	                       accepted → slot_update* → final|canceled,
//	                       resumable from a slot cursor after reconnect
//	GET    /query/{id}     status + accumulated per-slot results (poll)
//	DELETE /query/{id}     cancel a pending or continuous query
//	GET    /queries        paginated registry listing (?offset=&limit=)
//	GET    /metrics        engine-wide metrics snapshot (incl. event
//	                       delivery and valuation-call counters)
//	GET    /healthz        liveness + current slot
//
// Graceful shutdown: Server.Shutdown refuses new submissions (503 with
// code "server_closing") and ends every open watch stream with a
// terminal server_closing frame; the daemon then drains the HTTP server
// and stops the engine.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/wire"
)

// Options configures a Server.
type Options struct {
	// Retain is how long finished query records stay pollable; zero or
	// negative means the 10-minute default. Set NoRetention to disable
	// retention entirely.
	Retain time.Duration
	// NoRetention makes finished records evict at the next sweep instead
	// of being retained for polling.
	NoRetention bool
	// Strategy was the engine's selection strategy, mirrored for display.
	//
	// Deprecated: the engine always runs lazy greedy; the field is
	// ignored and will be removed.
	Strategy ps.Strategy
	// Logger receives structured request and query-lifecycle logs. Nil
	// discards them.
	Logger *slog.Logger
	// Debug mounts the net/http/pprof handlers and expvar under
	// /debug/. Off by default: the profiling surface can stall the
	// process (heap dumps, 30s CPU profiles) and belongs behind an
	// explicit operator decision.
	Debug bool

	// RateLimit bounds each client's sustained submission rate
	// (specs/second, batch entries each count one) with a token bucket
	// keyed by X-Client-ID or source address. Over-limit submissions get
	// 429 (code "rate_limited") with a Retry-After covering the token
	// deficit. Zero disables rate limiting.
	RateLimit float64
	// RateBurst is the token bucket's capacity — the instantaneous burst
	// a client may submit after idling. Zero defaults to max(1,
	// RateLimit), i.e. one second's worth.
	RateBurst int
	// HighWater, in (0,1], is the ingest-queue admission threshold:
	// submissions are rejected with 429 (code "queue_full") + Retry-After
	// once the engine's queue depth reaches HighWater x capacity, before
	// they race the queue's last slots. Zero disables the check.
	HighWater float64
	// MaxStreamsPerClient caps one client's concurrent /watch streams
	// (429, code "rate_limited", when exceeded). Zero means unlimited.
	MaxStreamsPerClient int
	// MaxStreams caps concurrent /watch streams across all clients. At
	// the cap, admitting a new stream evicts the oldest stream of the
	// client holding the most (fair share): the evicted SDK reconnects
	// and resumes from its cursor, missed frames surface as gaps. Zero
	// means unlimited.
	MaxStreams int

	// Cluster, when the engine fronts a multi-node cluster, reports the
	// coordinator's membership view (typically cluster.Coordinator's
	// Membership method); /healthz includes it. Nil for single-process
	// deployments.
	Cluster func() []wire.ClusterMember
}

// Server owns the HTTP-side query registry. Each accepted query gets a
// consumer goroutine moving its event stream into the registry record,
// so slow or absent HTTP consumers never block the slot clock; watch
// streams replay history from the record and then follow the live
// engine subscription. Finished records stay pollable for the retention
// window, then are evicted by an amortized sweep on the submit path —
// the registry stays bounded on a long-lived daemon.
type Server struct {
	eng    *ps.Engine
	world  *ps.World
	retain time.Duration
	autoID atomic.Int64

	log     *slog.Logger
	obs     *serverObs
	adm     *admission
	cluster func() []wire.ClusterMember
	start   time.Time
	debug   bool

	// closing is closed by Shutdown: submissions 503 and watch streams
	// end with a server_closing frame.
	closing   chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	queries map[string]*queryRecord
	submits int
}

// sweepEvery is how many submissions pass between eviction sweeps.
const sweepEvery = 256

// maxResultsPerQuery caps the per-record result history of long-lived
// continuous queries; older entries are discarded and surfaced as a gap
// to watchers resuming from before the retained window.
const maxResultsPerQuery = 1024

// defaultListLimit and maxListLimit bound GET /queries pages.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// noCursor is the watch cursor meaning "from the beginning".
const noCursor = math.MinInt32

// New builds a Server over a started engine and its world.
func New(eng *ps.Engine, world *ps.World, opts Options) *Server {
	retain := opts.Retain
	if retain <= 0 {
		retain = 10 * time.Minute
	}
	if opts.NoRetention {
		retain = 0
	}
	logger := opts.Logger
	if logger == nil {
		logger = discardLogger()
	}
	s := &Server{
		eng:     eng,
		world:   world,
		retain:  retain,
		log:     logger,
		obs:     newServerObs(eng.Observability()),
		cluster: opts.Cluster,
		start:   time.Now(),
		debug:   opts.Debug,
		closing: make(chan struct{}),
		queries: make(map[string]*queryRecord),
	}
	s.adm = newAdmission(opts, eng.QueueStats)
	s.adm.onEvict = func(client string) {
		s.obs.watchEvictions.Inc()
		s.log.Info("watch stream evicted", "client", client, "reason", "fair_share")
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleSubmit)
	mux.HandleFunc("POST /queries:batch", s.handleBatch)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("GET /query/{id}", s.handleGet)
	mux.HandleFunc("DELETE /query/{id}", s.handleCancel)
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.debug {
		// pprof.Index serves the whole /debug/pprof/ subtree (heap,
		// goroutine, block, ...); the named handlers below are the ones
		// Index cannot dispatch itself.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /debug/vars", expvar.Handler())
	}
	return s.instrument(mux)
}

// Shutdown transitions the server into draining: new submissions are
// refused with 503 (code "server_closing") and every open watch stream
// is ended with a terminal server_closing frame. Call it before
// http.Server.Shutdown — which then waits for the streams to unwind —
// and before Engine.Stop. Idempotent.
func (s *Server) Shutdown() {
	s.closeOnce.Do(func() { close(s.closing) })
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// sweepLocked evicts finished records past the retention window. Caller
// holds s.mu.
func (s *Server) sweepLocked() {
	cutoff := time.Now().Add(-s.retain)
	for id, rec := range s.queries {
		rec.mu.Lock()
		expired := rec.done && rec.doneAt.Before(cutoff)
		rec.mu.Unlock()
		if expired {
			delete(s.queries, id)
		}
	}
}

// queryRecord accumulates one query's event stream on the HTTP side: the
// accepted window, a bounded history of slot_update and gap frames in
// stream order (with a count of what fell out of it), the terminal
// state, and a broadcast channel watchers wait on for appends.
type queryRecord struct {
	id  string
	typ string
	// log receives the query's lifecycle events, correlated by query_id.
	log *slog.Logger

	mu sync.Mutex
	// live is set by the first event: the query went live. windowKnown
	// is set by the Accepted event specifically — under extreme consumer
	// stall the hub may have evicted it, in which case the window is
	// unknown but the record must still serve watchers.
	live        bool
	windowKnown bool
	start, end  int
	acceptedTS  int64
	// frames holds the retained slot_update and gap frames in stream
	// order, so replay reproduces mid-stream gaps at their position.
	frames []wire.EventFrame
	// missing counts slot_updates no longer replayable: evicted beyond
	// the history cap (gap frames evicted from it fold their Dropped
	// count in). All of them predate the oldest retained frame.
	missing int
	// slotUpdates counts the slot_update frames currently retained, so
	// listings don't rescan the history.
	slotUpdates int
	// lastCursor is the slot cursor of the last applied event; watchers
	// use it to know when the record covers their live-attach boundary.
	lastCursor int
	done       bool
	canceled   bool
	errMsg     string
	errCode    string
	termTS     int64
	doneAt     time.Time
	// updated is closed and replaced on every applied event; watchers
	// re-snapshot when it fires.
	updated chan struct{}

	handle *ps.QueryHandle
}

func newQueryRecord(id, typ string, log *slog.Logger) *queryRecord {
	return &queryRecord{id: id, typ: typ, log: log, lastCursor: noCursor, updated: make(chan struct{})}
}

func (r *queryRecord) isDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// notifyLocked wakes every watcher waiting for record progress. Caller
// holds r.mu.
func (r *queryRecord) notifyLocked() {
	close(r.updated)
	r.updated = make(chan struct{})
}

// appendFrameLocked retains one slot_update or gap frame, evicting the
// oldest past the history cap (an evicted gap folds its count into
// missing). Caller holds r.mu.
func (r *queryRecord) appendFrameLocked(f wire.EventFrame) {
	if len(r.frames) >= maxResultsPerQuery {
		old := r.frames[0]
		r.frames = r.frames[1:]
		if old.Event == wire.FrameGap {
			r.missing += old.Dropped
		} else {
			r.missing++
			r.slotUpdates--
		}
	}
	r.frames = append(r.frames, f)
	if f.Event == wire.FrameSlotUpdate {
		r.slotUpdates++
	}
}

// consume moves the subscription's event stream into the record until it
// closes.
func (r *queryRecord) consume() {
	for ev := range r.handle.Events() {
		r.mu.Lock()
		r.live = true
		switch ev.Type {
		case ps.EventAccepted:
			r.windowKnown, r.start, r.end = true, ev.Start, ev.End
			r.acceptedTS = ev.At.UnixNano()
			r.log.Info("query accepted", "query_id", r.id, "type", r.typ,
				"start", ev.Start, "end", ev.End)
		case ps.EventSlotUpdate, ps.EventGap:
			if f, err := wire.FrameFromEvent(ev); err == nil {
				r.appendFrameLocked(f)
			}
			r.log.Debug("query event", "query_id", r.id,
				"event", ev.Type.String(), "slot", ev.Slot)
		case ps.EventFinal:
			r.done = true
			r.doneAt = time.Now()
			r.termTS = ev.At.UnixNano()
			r.log.Info("query finished", "query_id", r.id, "slot", ev.Slot)
		case ps.EventCanceled:
			r.done, r.canceled = true, true
			r.doneAt = time.Now()
			r.termTS = ev.At.UnixNano()
			if ev.Err != nil {
				r.errMsg, r.errCode = ev.Err.Error(), wire.ErrorCode(ev.Err)
			}
			r.log.Info("query canceled", "query_id", r.id,
				"slot", ev.Slot, "error", r.errMsg)
		}
		if ev.Slot > r.lastCursor {
			r.lastCursor = ev.Slot
		}
		r.notifyLocked()
		r.mu.Unlock()
	}
	// Stream closed. For a submission that never went live (duplicate ID
	// racing past the registry reservation) no terminal event was
	// published; fold the subscription error into the record.
	r.mu.Lock()
	if !r.done {
		r.done = true
		r.doneAt = time.Now()
		if err := r.handle.Err(); err != nil {
			r.errMsg, r.errCode = err.Error(), wire.ErrorCode(err)
			r.canceled = true
		}
		r.notifyLocked()
	}
	r.mu.Unlock()
}

// nextAutoID returns the next server-assigned query ID, skipping every
// ID with an existing registry record: a live client-chosen one would
// 409 a request that never picked an ID, and a finished-but-retained one
// would be silently clobbered mid-retention. (A client racing to claim
// the returned ID before the reservation happens can still conflict; the
// counter only ever moves forward, so a retry gets a fresh ID.)
func (s *Server) nextAutoID() string {
	for {
		id := fmt.Sprintf("q%d", s.autoID.Add(1))
		s.mu.Lock()
		_, taken := s.queries[id]
		s.mu.Unlock()
		if !taken {
			return id
		}
	}
}

// submitEnvelope is the shared single-spec submission path behind
// POST /query and POST /queries:batch: decode, validate, reserve the
// registry slot, submit to the engine, start the record consumer. It
// returns the (possibly server-assigned) query ID, the HTTP status a
// standalone submission maps to, and the error.
func (s *Server) submitEnvelope(env wire.Envelope) (id string, status int, err error) {
	if env.ID == "" {
		env.ID = s.nextAutoID()
	}
	spec, err := env.Spec()
	if err != nil {
		return env.ID, http.StatusBadRequest, err
	}
	// Validate up front so the client gets a synchronous rejection
	// instead of an accepted ID whose stream opens just to fail. The
	// world's static configuration (GP model, bounds) is immutable, so
	// reading it off the loop goroutine is safe.
	if err := spec.Validate(s.world); err != nil {
		return env.ID, http.StatusBadRequest, err
	}
	id = spec.QueryID()

	// Reserve the registry slot before submitting so a duplicate ID can
	// never orphan a live query's record; finished IDs may be reused.
	rec := newQueryRecord(id, spec.Kind().String(), s.log)
	s.mu.Lock()
	old := s.queries[id]
	if old != nil && !old.isDone() {
		s.mu.Unlock()
		return id, http.StatusConflict, fmt.Errorf("query %q already exists: %w", id, ps.ErrDuplicateQueryID)
	}
	s.queries[id] = rec
	s.submits++
	if s.submits%sweepEvery == 0 {
		s.sweepLocked()
	}
	s.mu.Unlock()

	h, err := s.eng.Submit(spec)
	if err != nil {
		// Put back whatever was reserved over — a failed submission must
		// not evict a finished record still inside its retention window.
		s.mu.Lock()
		if old != nil {
			s.queries[id] = old
		} else {
			delete(s.queries, id)
		}
		s.mu.Unlock()
		// A watcher may have grabbed the reserved record in the window
		// before the rollback; terminate it instead of leaving the
		// stream waiting forever on a record no consumer will ever feed.
		rec.mu.Lock()
		rec.done, rec.canceled = true, true
		rec.doneAt = time.Now()
		rec.errMsg, rec.errCode = err.Error(), wire.ErrorCode(err)
		rec.notifyLocked()
		rec.mu.Unlock()
		status := http.StatusBadRequest
		if errors.Is(err, ps.ErrQueueFull) {
			status = http.StatusTooManyRequests
		} else if errors.Is(err, ps.ErrEngineStopped) {
			status = http.StatusServiceUnavailable
		}
		return id, status, err
	}
	rec.mu.Lock()
	rec.handle = h
	rec.mu.Unlock()
	go rec.consume()
	return id, http.StatusAccepted, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isClosing() {
		httpErrorCoded(w, http.StatusServiceUnavailable, wire.CodeServerClosing, "server closing")
		return
	}
	// Admission runs before the body is even decoded: an over-limit or
	// over-pressure client costs one map lookup, not a JSON parse plus an
	// engine round trip.
	client := clientKey(r)
	if ra, ok := s.adm.admitSubmit(client, 1); !ok {
		s.obs.admissionRejects.With("rate_limit").Inc()
		s.httpTooMany(w, wire.CodeRateLimited, ra, "client %q over its submission rate limit", client)
		return
	}
	if ra, ok := s.adm.admitQueue(); !ok {
		s.obs.admissionRejects.With("queue_pressure").Inc()
		s.httpTooMany(w, wire.CodeQueueFull, ra, "ingest queue past high-water mark: %v", ps.ErrQueueFull)
		return
	}
	var env wire.Envelope
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	id, status, err := s.submitEnvelope(env)
	if err != nil {
		if status == http.StatusTooManyRequests {
			// The engine itself pushed back (queue full, or admitted then
			// shed); tell the client how long the queue needs to drain.
			w.Header().Set("Retry-After", retryAfterSeconds(s.adm.pressureRetryAfter()))
		}
		httpErrorCoded(w, status, wire.ErrorCode(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, wire.SubmitAck{ID: id, Status: "accepted"})
}

// handleBatch serves POST /queries:batch: N submission envelopes in one
// request, each accepted or rejected independently. The HTTP status is
// 200 whenever the batch itself is well-formed; per-spec verdicts (with
// stable error codes) are index-aligned with the request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.isClosing() {
		httpErrorCoded(w, http.StatusServiceUnavailable, wire.CodeServerClosing, "server closing")
		return
	}
	var req wire.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.V != 0 && req.V != wire.Version2 {
		httpError(w, http.StatusBadRequest, "unsupported batch version %d (this build speaks v%d)", req.V, wire.Version2)
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, `empty batch: no "queries"`)
		return
	}
	if len(req.Queries) > wire.MaxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds the %d-spec limit", len(req.Queries), wire.MaxBatch)
		return
	}
	// A batch charges the token bucket one token per entry — splitting a
	// burst across batches must not dodge the rate limit.
	client := clientKey(r)
	if ra, ok := s.adm.admitSubmit(client, len(req.Queries)); !ok {
		s.obs.admissionRejects.With("rate_limit").Inc()
		s.httpTooMany(w, wire.CodeRateLimited, ra, "client %q over its submission rate limit", client)
		return
	}
	if ra, ok := s.adm.admitQueue(); !ok {
		s.obs.admissionRejects.With("queue_pressure").Inc()
		s.httpTooMany(w, wire.CodeQueueFull, ra, "ingest queue past high-water mark: %v", ps.ErrQueueFull)
		return
	}
	resp := wire.BatchResponse{V: wire.Version2, Results: make([]wire.BatchResult, 0, len(req.Queries))}
	for _, env := range req.Queries {
		id, _, err := s.submitEnvelope(env)
		if err != nil {
			resp.Rejected++
			resp.Results = append(resp.Results, wire.BatchResult{
				ID: id, Status: "rejected", Code: wire.ErrorCode(err), Error: err.Error(),
			})
			continue
		}
		resp.Accepted++
		resp.Results = append(resp.Results, wire.BatchResult{ID: id, Status: "accepted"})
	}
	w.Header().Set("Content-Type", "application/json")
	// A 200 batch can still carry retryable per-spec rejections
	// (queue_full/shed); give the retrying client the same queue-pressure
	// hint a standalone 429 would carry.
	for _, res := range resp.Results {
		if res.Status != "accepted" && wire.RetryableCode(res.Code) {
			w.Header().Set("Retry-After", retryAfterSeconds(s.adm.pressureRetryAfter()))
			break
		}
	}
	writeJSON(w, resp)
}

// frameWriter writes v2 event frames in the negotiated stream format
// (NDJSON by default, SSE when the client asked for text/event-stream)
// and flushes after every frame so push latency is one frame, not one
// buffer.
type frameWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
	err error
}

func (fw *frameWriter) write(f wire.EventFrame) bool {
	if fw.err != nil {
		return false
	}
	buf, err := wire.MarshalEventFrame(f)
	if err != nil {
		fw.err = err
		return false
	}
	if fw.sse {
		_, fw.err = fmt.Fprintf(fw.w, "data: %s\n\n", buf)
	} else {
		_, fw.err = fmt.Fprintf(fw.w, "%s\n", buf)
	}
	if fw.err == nil {
		fw.fl.Flush()
	}
	return fw.err == nil
}

// handleWatch serves GET /watch?id=...&cursor=...: the query's event
// stream, pushed as NDJSON lines (or SSE events). History up to the live
// attach point is replayed from the registry record — so a client
// reconnecting with its last cursor misses nothing the record still
// retains (anything older surfaces as a gap frame) — and everything
// after it is followed live from an engine subscription. The stream ends
// with the query's terminal frame, or with a server_closing frame on
// graceful shutdown.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, `missing "id"`)
		return
	}
	cursor := noCursor
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		c, err := strconv.Atoi(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad cursor %q", raw)
			return
		}
		cursor = c
	}
	rec := s.record(id)
	if rec == nil {
		httpErrorCoded(w, http.StatusNotFound, wire.CodeUnknownQuery, "unknown query %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	// Register the stream with admission control under a cancelable
	// context: fair-share eviction cancels it, the client sees its stream
	// end, reconnects with its cursor, and anything missed surfaces as a
	// gap frame — degradation, not data corruption.
	client := clientKey(r)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	release, ra, admitted := s.adm.admitStream(client, cancel)
	if !admitted {
		s.obs.admissionRejects.With("stream_cap").Inc()
		s.httpTooMany(w, wire.CodeRateLimited, ra, "client %q at its concurrent watch-stream cap", client)
		return
	}
	defer release()

	// Attach the live subscription BEFORE snapshotting the record: every
	// event is then either covered by the record replay (cursor <= the
	// subscription's join boundary, which the record is waited up to) or
	// delivered by the subscription — none can fall between.
	sub, err := s.eng.Watch(id)
	if err == nil {
		defer sub.Close()
	} else {
		sub = nil // finished (or never live): serve entirely from the record
	}

	fw := &frameWriter{w: w, fl: fl, sse: strings.Contains(r.Header.Get("Accept"), "text/event-stream")}
	if fw.sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	if sub == nil {
		s.streamFromRecord(ctx, rec, cursor, fw)
		return
	}

	boundary := sub.JoinCursor()
	// Wait for the record to cover everything published before the
	// subscription attached.
	for {
		rec.mu.Lock()
		ready := rec.done || (rec.live && rec.lastCursor >= boundary)
		updated := rec.updated
		rec.mu.Unlock()
		if ready {
			break
		}
		select {
		case <-updated:
		case <-ctx.Done():
			return
		case <-s.closing:
			fw.write(wire.ServerClosingFrame())
			return
		}
	}
	sent, ok := s.replayHistory(rec, cursor, boundary, fw)
	if !ok {
		return
	}

	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				// The engine closed the stream; the terminal frame (if
				// any) was already delivered above.
				return
			}
			if ev.Type == ps.EventAccepted {
				continue // replayed from the record already
			}
			if ev.Type == ps.EventSlotUpdate && ev.Slot <= sent {
				continue
			}
			f, err := wire.FrameFromEvent(ev)
			if err != nil {
				continue
			}
			if !fw.write(f) {
				return
			}
			if f.Terminal() {
				return
			}
		case <-ctx.Done():
			return
		case <-s.closing:
			fw.write(wire.ServerClosingFrame())
			return
		}
	}
}

// replayHistory writes the record's frames with cursor in (after,
// upTo] — the accepted frame, a gap covering anything evicted past the
// retained window, and the retained slot_update/gap frames in stream
// order. Returns the last cursor written (or after) and whether the
// stream is still writable.
func (s *Server) replayHistory(rec *queryRecord, after, upTo int, fw *frameWriter) (int, bool) {
	rec.mu.Lock()
	windowKnown := rec.windowKnown
	start, end := rec.start, rec.end
	acceptedTS := rec.acceptedTS
	missing := rec.missing
	frames := make([]wire.EventFrame, len(rec.frames))
	copy(frames, rec.frames)
	rec.mu.Unlock()

	sent := after
	if windowKnown && start-1 > after && start-1 <= upTo {
		if !fw.write(wire.EventFrame{
			V: wire.Version2, Event: wire.FrameAccepted, ID: rec.id,
			Slot: start - 1, Start: start, End: end, TS: acceptedTS,
		}) {
			return sent, false
		}
		sent = start - 1
	}
	if missing > 0 {
		// Everything evicted past the cap predates the oldest retained
		// frame; only a client resuming from before that window has
		// actually lost it. From is clamped to the client's cursor, so
		// the range never covers slots it already holds (Dropped is then
		// an upper bound on this client's loss).
		oldest := end + 1
		if len(frames) > 0 {
			oldest = frames[0].Slot
		}
		if after < oldest-1 {
			from := start
			if after+1 > from {
				from = after + 1
			}
			if !fw.write(wire.EventFrame{
				V: wire.Version2, Event: wire.FrameGap, ID: rec.id,
				Slot: oldest - 1, From: from, To: oldest - 1, Dropped: missing,
			}) {
				return sent, false
			}
			if oldest-1 > sent {
				sent = oldest - 1
			}
		}
	}
	for _, f := range frames {
		if f.Slot <= after || f.Slot > upTo {
			continue
		}
		if !fw.write(f) {
			return sent, false
		}
		sent = f.Slot
	}
	return sent, true
}

// streamFromRecord follows a record with no live engine subscription —
// the query already finished, or finishes while we stream — replaying
// history after the cursor and ending with the terminal frame.
func (s *Server) streamFromRecord(ctx context.Context, rec *queryRecord, cursor int, fw *frameWriter) {
	sent := cursor
	for {
		rec.mu.Lock()
		done := rec.done
		updated := rec.updated
		rec.mu.Unlock()

		var ok bool
		if sent, ok = s.replayHistory(rec, sent, math.MaxInt, fw); !ok {
			return
		}
		if done {
			fw.write(s.terminalFrame(rec))
			return
		}
		select {
		case <-updated:
		case <-ctx.Done():
			return
		case <-s.closing:
			fw.write(wire.ServerClosingFrame())
			return
		}
	}
}

// terminalFrame synthesizes the record's terminal v2 frame.
func (s *Server) terminalFrame(rec *queryRecord) wire.EventFrame {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.canceled || rec.errMsg != "" {
		code := rec.errCode
		if code == "" {
			code = wire.CodeCanceled
		}
		return wire.EventFrame{
			V: wire.Version2, Event: wire.FrameCanceled, ID: rec.id,
			Slot: rec.lastCursor, Error: rec.errMsg, Code: code, TS: rec.termTS,
		}
	}
	end := rec.end
	if !rec.windowKnown {
		end = rec.lastCursor
	}
	return wire.EventFrame{
		V: wire.Version2, Event: wire.FrameFinal, ID: rec.id,
		Slot: end, TS: rec.termTS,
	}
}

func (s *Server) record(id string) *queryRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		httpErrorCoded(w, http.StatusNotFound, wire.CodeUnknownQuery, "unknown query %q", r.PathValue("id"))
		return
	}
	rec.mu.Lock()
	resp := wire.QueryStatus{
		ID:               rec.id,
		Type:             rec.typ,
		Done:             rec.done,
		Results:          make([]wire.Result, 0, len(rec.frames)),
		ResultsTruncated: rec.missing,
		Error:            rec.errMsg,
	}
	for _, f := range rec.frames {
		if f.Event == wire.FrameSlotUpdate && f.Result != nil {
			resp.Results = append(resp.Results, *f.Result)
		} else if f.Event == wire.FrameGap {
			// Results inside a retained gap are as unavailable to the
			// polling endpoint as ones evicted past the cap.
			resp.ResultsTruncated += f.Dropped
		}
	}
	rec.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, resp)
}

// handleList serves GET /queries: one page of the registry ordered by
// query ID, so operators can enumerate live queries instead of guessing
// IDs. ?offset= and ?limit= paginate; limit defaults to 100, is capped
// at 1000, and limit=0 returns an empty page with the total only.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	offset, err := queryInt(r, "offset", 0)
	if err != nil || offset < 0 {
		httpError(w, http.StatusBadRequest, "bad offset %q", r.URL.Query().Get("offset"))
		return
	}
	limit, err := queryInt(r, "limit", defaultListLimit)
	if err != nil || limit < 0 {
		httpError(w, http.StatusBadRequest, "bad limit %q", r.URL.Query().Get("limit"))
		return
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}

	s.mu.Lock()
	recs := make([]*queryRecord, 0, len(s.queries))
	for _, rec := range s.queries {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })

	list := wire.QueryList{Total: len(recs), Offset: offset, Queries: []wire.QuerySummary{}}
	if offset < len(recs) && limit > 0 {
		page := recs[offset:]
		if len(page) > limit {
			page = page[:limit]
		}
		for _, rec := range page {
			rec.mu.Lock()
			list.Queries = append(list.Queries, wire.QuerySummary{
				ID:      rec.id,
				Type:    rec.typ,
				Done:    rec.done,
				Results: rec.slotUpdates,
			})
			rec.mu.Unlock()
		}
	}
	list.Count = len(list.Queries)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, list)
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		httpErrorCoded(w, http.StatusNotFound, wire.CodeUnknownQuery, "unknown query %q", r.PathValue("id"))
		return
	}
	rec.mu.Lock()
	h := rec.handle
	done := rec.done
	rec.mu.Unlock()
	if h == nil {
		httpError(w, http.StatusConflict, "query %q still registering", rec.id)
		return
	}
	if done {
		httpError(w, http.StatusGone, "query %q already finished", rec.id)
		return
	}
	if err := h.Cancel(); err != nil {
		httpErrorCoded(w, http.StatusServiceUnavailable, wire.ErrorCode(err), "cancel: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, wire.SubmitAck{ID: rec.id, Status: "canceling"})
}

// handleMetrics serves the engine metrics in two representations from
// one endpoint: the JSON document (default, unchanged wire format) and
// the Prometheus text exposition, selected by Accept: text/plain (what
// a Prometheus scrape sends) or ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.eng.Observability().WritePrometheus(w); err != nil {
			log.Printf("serve: write prometheus exposition: %v", err)
		}
		return
	}
	m := wire.MetricsFrom(s.eng.Metrics())
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, m)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.eng.Metrics()
	version, revision, goVersion := buildIdentity()
	h := wire.Healthz{
		OK:            !s.isClosing(),
		Slots:         m.Slots,
		QueueDepth:    m.QueueDepth,
		Version:       version,
		Revision:      revision,
		GoVersion:     goVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.cluster != nil {
		h.Cluster = s.cluster()
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, h)
}

func writeJSON(w http.ResponseWriter, v any) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCoded(w, status, "", format, args...)
}

// httpTooMany writes a 429 with a Retry-After hint derived from the
// admission decision (token deficit or queue pressure).
func (s *Server) httpTooMany(w http.ResponseWriter, code string, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	httpErrorCoded(w, http.StatusTooManyRequests, code, format, args...)
}

// httpErrorCoded writes an ErrorBody carrying the stable machine-
// readable code (empty codes are omitted from the JSON).
func httpErrorCoded(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, wire.ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}
