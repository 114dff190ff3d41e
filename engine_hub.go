package ps

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"
)

// ErrUnknownQuery reports a Watch on a query the engine is not currently
// serving: never submitted, already finished, or canceled.
var ErrUnknownQuery = errors.New("ps: unknown query")

// EventType labels one frame of a query's event stream. Every
// materialized query publishes the typed sequence
//
//	Accepted → SlotUpdate* → Final | Canceled
//
// with Gap frames interleaved per subscriber when its buffer overflowed
// (see Subscription).
type EventType int

const (
	// EventAccepted opens every stream: the spec was validated and
	// materialized; Start/End carry the query's slot window.
	EventAccepted EventType = iota
	// EventSlotUpdate carries one executed slot's SlotResult.
	EventSlotUpdate
	// EventGap reports Dropped events evicted from this subscriber's
	// buffer because it fell behind (slots From..Slot); the stream
	// continues with the newest events.
	EventGap
	// EventFinal terminates a stream whose query expired normally; the
	// final SlotUpdate precedes it.
	EventFinal
	// EventCanceled terminates a stream cut short: Err distinguishes
	// issuer cancellation (ErrCanceled) from engine shutdown
	// (ErrEngineStopped).
	EventCanceled
)

// String returns the event type's wire name (package wire's v2 frames use
// the same names).
func (t EventType) String() string {
	switch t {
	case EventAccepted:
		return "accepted"
	case EventSlotUpdate:
		return "slot_update"
	case EventGap:
		return "gap"
	case EventFinal:
		return "final"
	case EventCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// QueryEvent is one frame of a query's event stream.
type QueryEvent struct {
	// Type selects which of the remaining fields are meaningful.
	Type EventType
	// QueryID names the stream's query.
	QueryID string
	// Slot is the monotone slot cursor: the last executed slot this event
	// is current as of. Accepted carries Start-1 (nothing executed yet),
	// SlotUpdate its slot, Final the end slot, Canceled the last slot
	// executed while the query was live, and Gap the cursor of the event
	// it was emitted in front of. Within one stream, delivery order never
	// decreases the cursor, so a consumer can resume from its last cursor
	// after a reconnect.
	Slot int
	// Start and End delimit the query's slot window (Accepted only).
	Start, End int
	// Result is the executed slot's outcome (SlotUpdate only).
	Result SlotResult
	// Dropped counts the events evicted from this subscriber's buffer,
	// covering slots From..To (Gap only).
	Dropped  int
	From, To int
	// Err is the termination cause (Canceled only): ErrCanceled or
	// ErrEngineStopped.
	Err error
	// At is the publish timestamp, set on the event-loop goroutine —
	// subscribers can measure delivery latency against it.
	At time.Time
}

// Subscription is one subscriber's view of a query's event stream. The
// submitting QueryHandle owns one; any number of additional watchers can
// attach with Engine.Watch. Each subscription has its own bounded buffer
// with an explicit slow-consumer policy: when the buffer is full the
// *oldest* buffered event is evicted and accounted in a Gap frame
// delivered before the next event — the newest events (and in particular
// the terminal one) always land, and a stalled subscriber never blocks
// the slot loop.
type Subscription struct {
	id  string
	hub *hub
	ch  chan QueryEvent

	// Everything below is guarded by hub.mu.
	closed bool
	// err is published by the close of ch; see Err.
	err error
	// joinCursor is the topic's cursor when this subscription attached.
	joinCursor int
	// Pending-gap accumulator: events evicted since the last Gap frame.
	dropped          int
	dropFrom, dropTo int
}

// Events returns the subscription's event stream. The channel closes
// after the terminal event (Final or Canceled), after Close, or — for a
// submission that never went live — immediately, with the cause in Err.
func (s *Subscription) Events() <-chan QueryEvent { return s.ch }

// ID returns the subscribed query's identifier.
func (s *Subscription) ID() string { return s.id }

// Err explains why the stream ended: nil after a normal Final (or a
// consumer-side Close), ErrCanceled, ErrEngineStopped, or the submission
// error of a spec that never went live (validation failure,
// ErrDuplicateQueryID). Only valid once Events is closed.
func (s *Subscription) Err() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.err
}

// JoinCursor reports the stream's slot cursor at the moment this
// subscription attached: every event published before it has Slot <=
// JoinCursor, and the subscription delivers exactly the events published
// after it. A transport replaying history to a late watcher serves
// cursors up to JoinCursor from its own store and the rest live.
func (s *Subscription) JoinCursor() int {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.joinCursor
}

// Close detaches the subscription: the channel is closed (after whatever
// is already buffered is discarded by garbage collection, not delivered)
// and the hub stops publishing to it. Closing does not cancel the query;
// the submitting handle's Cancel does. Safe to call more than once, and
// concurrently with event delivery.
func (s *Subscription) Close() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	if s.closed {
		return
	}
	s.closeLocked(nil)
	if t := s.hub.topics[s.id]; t != nil {
		t.detach(s)
	}
}

// closeLocked ends the stream with err. Caller holds hub.mu.
func (s *Subscription) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	close(s.ch)
}

// push delivers ev, evicting the oldest buffered events instead of
// blocking when the buffer is full; evictions accumulate into a Gap
// frame emitted before ev. Caller holds hub.mu (which serializes all
// senders, so a post-eviction send can never block: receivers only free
// space). Returns delivered and dropped event counts for the metrics.
func (s *Subscription) push(ev QueryEvent) (delivered, dropped int) {
	if s.closed {
		return 0, 0
	}
	need := 1
	if s.dropped > 0 {
		need = 2 // a pending Gap frame rides in front of ev
	}
	for cap(s.ch)-len(s.ch) < need {
		select {
		case old := <-s.ch:
			if old.Type == EventGap {
				// Re-absorb an unread Gap frame instead of counting it as
				// a lost event.
				if s.dropped == 0 || old.From < s.dropFrom {
					s.dropFrom = old.From
				}
				s.dropped += old.Dropped
				if old.To > s.dropTo {
					s.dropTo = old.To
				}
			} else {
				if s.dropped == 0 {
					s.dropFrom = old.Slot
				}
				s.dropped++
				if old.Slot > s.dropTo {
					s.dropTo = old.Slot
				}
				dropped++
			}
			need = 2
		default:
			// A racing reader freed space for us instead.
		}
		if cap(s.ch)-len(s.ch) >= need {
			break
		}
	}
	if s.dropped > 0 {
		// The Gap frame rides immediately in front of ev and reports ev's
		// cursor: buffered events are cursor-ordered, and the dropped
		// range is carried separately in From..To (an eviction can cover
		// slots older than events already buffered behind it).
		s.ch <- QueryEvent{
			Type: EventGap, QueryID: s.id,
			Slot: ev.Slot, From: s.dropFrom, To: s.dropTo, Dropped: s.dropped,
			At: ev.At,
		}
		s.hub.gapEvents++
		if o := s.hub.obs; o != nil {
			o.evictionRun.Observe(float64(s.dropped))
		}
		delivered++
		s.dropped, s.dropFrom, s.dropTo = 0, 0, 0
	}
	s.ch <- ev
	delivered++
	return delivered, dropped
}

// topic is one live query's publication point inside the hub.
type topic struct {
	id         string
	start, end int
	// cursor is the Slot of the last published event.
	cursor int
	// owner is the submitting handle's subscription; Cancel only acts
	// when the canceling handle still owns the live topic (a reused ID
	// must not let a stale handle cancel its successor).
	owner *Subscription
	subs  []*Subscription
	// acceptedAt anchors the query's lifecycle spans (time to first
	// update, lifetime); sawUpdate marks the first SlotUpdate published.
	acceptedAt time.Time
	sawUpdate  bool
}

// publish fans ev out to every attached subscription and advances the
// cursor. Caller holds hub.mu.
func (t *topic) publish(ev QueryEvent) (delivered, dropped int) {
	t.cursor = ev.Slot
	for _, s := range t.subs {
		d, dr := s.push(ev)
		delivered += d
		dropped += dr
	}
	return delivered, dropped
}

// close ends every attached stream with err. Caller holds hub.mu.
func (t *topic) close(err error) {
	for _, s := range t.subs {
		s.closeLocked(err)
	}
	t.subs = nil
}

// detach removes one subscription. Caller holds hub.mu.
func (t *topic) detach(sub *Subscription) {
	for i, s := range t.subs {
		if s == sub {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			return
		}
	}
}

// hub is the engine's central subscription hub: it owns every live
// query's topic and fans the event-loop goroutine's publications out to
// all subscribers. Publications and (un)subscriptions synchronize on one
// mutex; every per-subscriber send is non-blocking by construction
// (drop-oldest), so the slot loop's time under the lock is bounded by
// buffer operations, never by subscriber behavior.
type hub struct {
	buffer int
	// obs, when set, receives eviction and query-lifecycle observations
	// (a couple of atomic ops each, recorded under mu).
	obs *hubObs

	// mu guards topics, gapEvents and all subscription/topic state. It
	// is deliberately separate from the engine's metrics mutex.
	mu     sync.Mutex
	topics map[string]*topic
	// gapEvents counts Gap frames emitted hub-wide; it is the store
	// behind EngineMetrics.GapEvents and ps_hub_gap_frames_total.
	gapEvents int64
}

func newHub(buffer int) *hub {
	if buffer < 2 {
		// A Gap frame must fit in front of the event that displaced it.
		buffer = 2
	}
	return &hub{buffer: buffer, topics: make(map[string]*topic)}
}

// newSubscription builds an unattached subscription (used by submit: the
// handle's stream must exist before registration so a rejection can close
// it with the cause).
func (h *hub) newSubscription(id string) *Subscription {
	return &Subscription{id: id, hub: h, ch: make(chan QueryEvent, h.buffer)}
}

// live reports whether id has a live topic.
func (h *hub) live(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.topics[id]
	return ok
}

// register creates id's topic with the owner subscription attached and
// publishes the opening Accepted event. Loop goroutine only.
func (h *hub) register(id string, start, end int, owner *Subscription, at time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := &topic{id: id, start: start, end: end, cursor: start - 1, owner: owner, subs: []*Subscription{owner}, acceptedAt: at}
	owner.joinCursor = start - 1
	h.topics[id] = t
	t.publish(QueryEvent{
		Type: EventAccepted, QueryID: id,
		Slot: start - 1, Start: start, End: end, At: at,
	})
}

// watch attaches a new subscription to a live topic. The subscription
// delivers exactly the events published after it attached (JoinCursor
// tells the caller where that is); the opening Accepted event is
// replayed into it so every stream starts with the same frame.
func (h *hub) watch(id string) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.topics[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownQuery, id)
	}
	s := h.newSubscription(id)
	s.joinCursor = t.cursor
	s.push(QueryEvent{
		Type: EventAccepted, QueryID: id,
		Slot: t.start - 1, Start: t.start, End: t.end, At: time.Now(),
	})
	t.subs = append(t.subs, s)
	return s, nil
}

// cancel tears id down if owner still owns the live topic, publishing
// the Canceled terminal and closing every attached stream. Loop
// goroutine only. Reports whether a live topic was canceled.
func (h *hub) cancel(id string, owner *Subscription, cause error, at time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.topics[id]
	if !ok || t.owner != owner {
		return false
	}
	delete(h.topics, id)
	t.publish(QueryEvent{Type: EventCanceled, QueryID: id, Slot: t.cursor, Err: cause, At: at})
	t.close(cause)
	h.observeLifetime(t, at)
	return true
}

// observeLifetime records a finished topic's lifecycle span. Caller
// holds h.mu.
func (h *hub) observeLifetime(t *topic, at time.Time) {
	if h.obs != nil && !t.acceptedAt.IsZero() {
		h.obs.lifetime.Observe(at.Sub(t.acceptedAt).Seconds())
	}
}

// gapCount returns the number of Gap frames emitted so far.
func (h *hub) gapCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gapEvents
}

// liveCount returns the number of live topics.
func (h *hub) liveCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.topics)
}

// closeAll force-terminates every live topic with cause (engine
// shutdown past the drain cap). Loop goroutine only.
func (h *hub) closeAll(cause error, at time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, t := range h.topics {
		delete(h.topics, id)
		t.publish(QueryEvent{Type: EventCanceled, QueryID: id, Slot: t.cursor, Err: cause, At: at})
		t.close(cause)
		h.observeLifetime(t, at)
	}
}

// publishSlot fans one executed slot's report out to every live topic:
// a SlotUpdate per query, then Final + stream close for the queries
// whose window ended this slot. Loop goroutine only.
func (h *hub) publishSlot(rep *SlotReport, events map[string][]EventNotification, at time.Time) (st slotDelivery) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Sorted query order: st.payments is a float sum that feeds
	// EngineMetrics.TotalPayments, so fan-out iterates a reproducible
	// order (floatorder) — which also makes per-slot delivery order
	// deterministic for free.
	for _, id := range slices.Sorted(maps.Keys(h.topics)) {
		t := h.topics[id]
		res := SlotResult{
			Slot:     rep.Slot,
			Answered: rep.Answered(id),
			Value:    rep.Value(id),
			Payment:  rep.Payment(id),
			Events:   events[id],
			Final:    rep.Slot >= t.end,
		}
		if res.Answered {
			st.answered++
		} else {
			st.starved++
		}
		st.payments += res.Payment
		d, dr := t.publish(QueryEvent{
			Type: EventSlotUpdate, QueryID: id, Slot: rep.Slot, Result: res, At: at,
		})
		st.delivered += int64(d)
		st.dropped += int64(dr)
		if !t.sawUpdate {
			t.sawUpdate = true
			if h.obs != nil && !t.acceptedAt.IsZero() {
				h.obs.firstUpdate.Observe(at.Sub(t.acceptedAt).Seconds())
			}
		}
		if res.Final {
			d, dr = t.publish(QueryEvent{Type: EventFinal, QueryID: id, Slot: t.end, At: at})
			st.delivered += int64(d)
			st.dropped += int64(dr)
			t.close(nil)
			delete(h.topics, id)
			h.observeLifetime(t, at)
		}
	}
	// Subscriber backlog after the fan-out: how many subscriptions are
	// attached, the largest per-subscriber buffered backlog, and total
	// occupancy — the hub-health gauges.
	for _, t := range h.topics {
		for _, s := range t.subs {
			st.subscribers++
			n := len(s.ch)
			st.buffered += n
			st.bufCap += cap(s.ch)
			if n > st.maxLag {
				st.maxLag = n
			}
		}
	}
	return st
}

// slotDelivery aggregates one slot's fan-out accounting.
type slotDelivery struct {
	delivered, dropped int64
	answered, starved  int64
	payments           float64
	// Subscriber backlog at the end of the fan-out.
	subscribers, maxLag, buffered, bufCap int
}
