// Package stream is the continuous-query push subsystem: a subscription
// broker that fans incremental kNN result events out to long-lived
// subscribers (SSE connections, in-process consumers).
//
// The serving engine publishes one Event per observable result change of a
// watched session — the session moved and its kNN membership changed, or a
// data update (object insert/delete) invalidated it and the engine
// recomputed eagerly. The broker delivers each event to every subscriber
// watching that session through a per-subscriber bounded queue.
//
// Slow consumers can never stall a publisher or grow broker memory
// unboundedly; the two pressure valves are explicit and observable in
// Stats:
//
//   - Coalescing (latest-result-wins): a subscriber holds at most one
//     pending event per session. A newer event for the same session merges
//     into the pending one — the full kNN set is replaced and the
//     added/removed delta is recomputed against the pending event's
//     baseline, so the merged delta is exactly what a consumer that missed
//     the intermediate state needs. Sequence numbers jump across a
//     coalesce, which is how consumers detect it.
//   - Overflow (drop-oldest): a subscriber queues at most depth distinct
//     sessions. When a fresh session arrives at a full queue, the oldest
//     pending event is dropped and counted; the consumer re-baselines that
//     session from the next event's full kNN set.
//
// Publish never blocks: it takes the subscriber lock, updates the pending
// map, and does a non-blocking wake send. With no subscribers it is one
// atomic load, so the serving hot path pays nothing for the subsystem
// until someone listens.
package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Cause classifies why an event was emitted.
type Cause string

// Event causes. Snapshot and Bye are synthesized by the transport layer
// (an SSE handler's initial state and shutdown farewell); the broker
// itself publishes Move, Data and Close events.
const (
	// CauseSnapshot is a transport-synthesized baseline: the session's
	// current kNN set at subscribe time.
	CauseSnapshot Cause = "snapshot"
	// CauseMove: the session processed a location update and its kNN
	// membership changed.
	CauseMove Cause = "move"
	// CauseData: a data update (object insert/delete) invalidated the
	// session and the engine recomputed its kNN eagerly.
	CauseData Cause = "data"
	// CauseClose: the session was closed; no further events follow.
	CauseClose Cause = "close"
	// CauseBye is a transport-synthesized farewell on graceful shutdown.
	CauseBye Cause = "bye"
)

// Event is one push notification: a session's current kNN result plus the
// delta against the previously published result. The slices are owned by
// the event and never mutated after Publish.
type Event struct {
	// Session is the engine session id.
	Session uint64
	// Seq is the session's publish sequence number, strictly increasing
	// per session. A gap at the consumer means events were coalesced or
	// dropped; the full KNN set re-baselines it.
	Seq uint64
	// Epoch is the index snapshot epoch the result was computed against.
	Epoch uint64
	// Cause is why the event was emitted.
	Cause Cause
	// KNN is the full current kNN membership (ascending distance at
	// computation time).
	KNN []int
	// Added / Removed are the membership delta against the session's
	// previously published result.
	Added   []int
	Removed []int
}

// DefaultQueueDepth is the default per-subscriber bound on pending
// sessions. One pending event is O(k) ints, so a full queue is a few
// hundred KB at most.
const DefaultQueueDepth = 256

// Stats is an aggregated snapshot of the broker's fan-out state.
type Stats struct {
	// Subscribers is the number of live subscribers.
	Subscribers int `json:"subscribers"`
	// WatchedSessions is the number of distinct explicitly-watched
	// sessions (wildcard subscribers watch everything and are not counted
	// here).
	WatchedSessions int `json:"watched_sessions"`
	// Published counts events handed to Publish.
	Published uint64 `json:"published"`
	// Delivered counts events consumers actually popped.
	Delivered uint64 `json:"delivered"`
	// Coalesced counts newer events merged into a pending one
	// (latest-result-wins).
	Coalesced uint64 `json:"coalesced"`
	// Dropped counts pending events evicted by queue overflow.
	Dropped uint64 `json:"dropped"`
}

// Broker fans session result events out to subscribers. All methods are
// safe for concurrent use.
type Broker struct {
	defaultDepth int
	nsubs        atomic.Int64
	obs          *obs.Pipeline // nil when observability is off

	published atomic.Uint64
	delivered atomic.Uint64
	coalesced atomic.Uint64
	dropped   atomic.Uint64

	mu        sync.RWMutex
	closed    bool
	subs      map[*Subscriber]struct{}
	wild      map[*Subscriber]struct{}            // subscribers watching every session
	bySession map[uint64]map[*Subscriber]struct{} // explicit watchers per session
}

// NewBroker builds a broker whose subscribers default to the given queue
// depth (DefaultQueueDepth when <= 0). p is the observability pipeline that
// times fan-out (the push stage) and logs overflows; it may be nil.
func NewBroker(depth int, p *obs.Pipeline) *Broker {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &Broker{
		defaultDepth: depth,
		obs:          p,
		subs:         make(map[*Subscriber]struct{}),
		wild:         make(map[*Subscriber]struct{}),
		bySession:    make(map[uint64]map[*Subscriber]struct{}),
	}
}

// Subscribe registers a subscriber for the given sessions (none = every
// session) with the given queue depth (<= 0 = the broker default). It
// returns nil after Close.
func (b *Broker) Subscribe(depth int, sessions ...uint64) *Subscriber {
	if depth <= 0 {
		depth = b.defaultDepth
	}
	s := &Subscriber{
		broker:  b,
		depth:   depth,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		pending: make(map[uint64]Event),
	}
	if len(sessions) > 0 {
		s.filter = make(map[uint64]struct{}, len(sessions))
		for _, sid := range sessions {
			s.filter[sid] = struct{}{}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.subs[s] = struct{}{}
	if s.filter == nil {
		b.wild[s] = struct{}{}
	} else {
		for sid := range s.filter {
			m := b.bySession[sid]
			if m == nil {
				m = make(map[*Subscriber]struct{})
				b.bySession[sid] = m
			}
			m[s] = struct{}{}
		}
	}
	b.nsubs.Add(1)
	return s
}

// Active reports whether any subscriber is live — one atomic load, the
// publisher's fast path when nobody listens.
func (b *Broker) Active() bool { return b.nsubs.Load() > 0 }

// Watched reports whether any live subscriber watches the session. The
// engine uses it to skip delta computation — and, on data updates, eager
// recomputation — for sessions nobody listens to.
func (b *Broker) Watched(sid uint64) bool {
	if b.nsubs.Load() == 0 {
		return false
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.wild) > 0 {
		return true
	}
	return len(b.bySession[sid]) > 0
}

// Publish fans an event out to every subscriber watching its session. It
// never blocks and is a near-no-op without subscribers.
func (b *Broker) Publish(ev Event) {
	if b.nsubs.Load() == 0 {
		return
	}
	var start time.Time
	if b.obs.Enabled() {
		start = time.Now()
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return
	}
	b.published.Add(1)
	for s := range b.wild {
		s.offer(ev)
	}
	for s := range b.bySession[ev.Session] {
		s.offer(ev)
	}
	b.mu.RUnlock()
	if b.obs.Enabled() {
		b.obs.Observe(obs.StagePush, time.Since(start))
	}
}

// PendingTotal returns the number of events queued across every live
// subscriber — the stream-occupancy gauge. It takes the broker read lock
// and each subscriber's lock briefly; scrape-rate use only.
func (b *Broker) PendingTotal() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	total := 0
	for s := range b.subs {
		total += s.Pending()
	}
	return total
}

// Stats returns an aggregated snapshot of the broker state.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	st := Stats{Subscribers: len(b.subs), WatchedSessions: len(b.bySession)}
	b.mu.RUnlock()
	st.Published = b.published.Load()
	st.Delivered = b.delivered.Load()
	st.Coalesced = b.coalesced.Load()
	st.Dropped = b.dropped.Load()
	return st
}

// Close shuts the broker down: further Publish and Subscribe calls are
// no-ops and every live subscriber's Done channel closes, which is the
// signal transports use to send a final farewell. Close is idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*Subscriber]struct{})
	b.wild = make(map[*Subscriber]struct{})
	b.bySession = make(map[uint64]map[*Subscriber]struct{})
	b.nsubs.Store(0)
	b.mu.Unlock()
	for _, s := range subs {
		s.shut()
	}
}

// Subscriber is one consumer's bounded, coalescing event queue. Wake/Next
// form a pull loop that decouples the consumer's pace from publishers:
//
//	for {
//		select {
//		case <-sub.Done():
//			return // broker closed or Subscriber.Close
//		case <-sub.Wake():
//			for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
//				consume(ev)
//			}
//		}
//	}
type Subscriber struct {
	broker *Broker
	depth  int
	filter map[uint64]struct{} // nil = every session
	wake   chan struct{}
	done   chan struct{}
	once   sync.Once

	// Per-subscriber views of the broker's aggregate counters, so one
	// deliberately slow consumer (a benchmark stall probe, a stuck SSE
	// client) can be accounted separately from the healthy fan-out.
	delivered atomic.Uint64
	coalesced atomic.Uint64
	dropped   atomic.Uint64

	mu      sync.Mutex
	closed  bool
	pending map[uint64]Event
	queue   []uint64 // arrival order of pending sessions; queue[head:] live
	head    int
}

// Wake returns the notification channel: a receive means Next may have
// events. It is level-triggered with capacity one, so a consumer never
// misses a wake-up but may see a spurious one.
func (s *Subscriber) Wake() <-chan struct{} { return s.wake }

// Done closes when the broker shuts down or the subscriber is closed.
func (s *Subscriber) Done() <-chan struct{} { return s.done }

// Pending returns the number of queued events — bounded by the queue
// depth, which is the broker's memory guarantee under a slow consumer.
func (s *Subscriber) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Delivered returns the number of events this subscriber popped via Next.
func (s *Subscriber) Delivered() uint64 { return s.delivered.Load() }

// Coalesced returns the number of events merged into this subscriber's
// pending queue (latest-result-wins).
func (s *Subscriber) Coalesced() uint64 { return s.coalesced.Load() }

// Dropped returns the number of pending events evicted from this
// subscriber's queue by overflow.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Next pops the oldest pending event. ok is false when the queue is
// empty.
func (s *Subscriber) Next() (ev Event, ok bool) {
	s.mu.Lock()
	if s.head >= len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
		s.mu.Unlock()
		return Event{}, false
	}
	sid := s.popLocked()
	ev = s.pending[sid]
	delete(s.pending, sid)
	s.broker.delivered.Add(1)
	s.delivered.Add(1)
	s.mu.Unlock()
	// The stall failpoint models a slow consumer (stuck SSE client) and
	// fires outside s.mu so publishers keep offering — backpressure lands
	// on this subscriber's own queue (coalesce/drop-oldest), never on the
	// fan-out path.
	fault.StreamWriteStall.FireKey(sid)
	return ev, true
}

// Close unsubscribes: the broker stops delivering, pending events are
// discarded and Done closes. It is idempotent and safe concurrently with
// Publish and broker Close.
func (s *Subscriber) Close() {
	b := s.broker
	b.mu.Lock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		delete(b.wild, s)
		for sid := range s.filter {
			if m := b.bySession[sid]; m != nil {
				delete(m, s)
				if len(m) == 0 {
					delete(b.bySession, sid)
				}
			}
		}
		b.nsubs.Add(-1)
	}
	b.mu.Unlock()
	s.shut()
}

// shut marks the subscriber dead and releases its queue memory.
func (s *Subscriber) shut() {
	s.mu.Lock()
	s.closed = true
	s.pending = nil
	s.queue = nil
	s.head = 0
	s.mu.Unlock()
	s.once.Do(func() { close(s.done) })
}

// offer enqueues an event, coalescing and overflowing per the package
// policy, then wakes the consumer without blocking.
func (s *Subscriber) offer(ev Event) {
	var overflowed uint64
	dropped := false
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if old, ok := s.pending[ev.Session]; ok {
		s.pending[ev.Session] = coalesce(old, ev)
		s.broker.coalesced.Add(1)
		s.coalesced.Add(1)
	} else {
		if len(s.pending) >= s.depth {
			victim := s.popLocked()
			delete(s.pending, victim)
			s.broker.dropped.Add(1)
			s.dropped.Add(1)
			overflowed = victim
			dropped = true
		}
		s.pending[ev.Session] = ev
		s.queue = append(s.queue, ev.Session)
	}
	s.mu.Unlock()
	if dropped {
		s.broker.obs.StreamOverflow(overflowed, s.depth)
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// popLocked removes and returns the oldest queued session id, compacting
// the queue slice once the dead prefix dominates. Callers must hold s.mu
// and have checked head < len(queue).
func (s *Subscriber) popLocked() uint64 {
	sid := s.queue[s.head]
	s.head++
	if s.head > 64 && s.head*2 > len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	return sid
}

// coalesce merges a newer event into the pending one: the new full kNN
// set wins, and the delta is recomputed against the pending event's
// baseline (its kNN minus its additions plus its removals), so a consumer
// that never saw the intermediate state still applies an exact delta.
func coalesce(old, new Event) Event {
	base := make(map[int]struct{}, len(old.KNN)+len(old.Removed))
	for _, id := range old.KNN {
		base[id] = struct{}{}
	}
	for _, id := range old.Added {
		delete(base, id)
	}
	for _, id := range old.Removed {
		base[id] = struct{}{}
	}
	var added []int
	inNew := make(map[int]struct{}, len(new.KNN))
	for _, id := range new.KNN {
		inNew[id] = struct{}{}
		if _, ok := base[id]; !ok {
			added = append(added, id)
		}
	}
	var removed []int
	for id := range base {
		if _, ok := inNew[id]; !ok {
			removed = append(removed, id)
		}
	}
	new.Added, new.Removed = added, removed
	return new
}
