package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/stream"
	"repro/internal/vortree"
)

// shard is one serving partition: a worker goroutine that owns every
// session pinned to it — and nothing else. The index lives in the shared
// snapshot store; the shard holds one snapshot, which all its sessions read
// lock-free, and moves them all to the next one at once (sweep). All
// per-session INS state is touched by exactly one goroutine; shards
// communicate with the engine only through the mailbox, reply channels, and
// the store's epoch notifications.
type shard struct {
	id      int
	store   *index.Store
	events  *stream.Broker
	mailbox chan message
	notify  <-chan uint64 // coalesced epoch notifications from the store
	done    chan struct{}
	obs     *obs.Pipeline // nil when observability is off

	// Worker-owned state; never accessed outside the worker goroutine.
	snap     *index.Snapshot // the snapshot every session here reads
	sessions map[SessionID]*session

	// hist times every processed location update; its count is the
	// shard's update count. Only the worker writes it, and Stats and the
	// metrics registry read it by atomic loads without a mailbox
	// round-trip.
	hist obs.Histogram

	// sessionsN and epoch mirror worker-owned state as atomics so the
	// metrics registry can read them at scrape time (only the worker
	// writes them). epoch is snap's.
	sessionsN atomic.Int64
	epoch     atomic.Uint64

	// expired counts batch entries dropped because their request deadline
	// passed while the batch sat in the mailbox. Written by the worker,
	// read at scrape time.
	expired atomic.Uint64

	// Reusable delta scratch: the pre-change baseline buffer and the
	// membership maps diffIDs needs. Publishing an event still allocates
	// the event's own slices (events outlive the worker loop), but the
	// bookkeeping around it is allocation-free.
	prevBuf []int
	inOld   map[int]struct{}
	inNew   map[int]struct{}

	// Shared search scratch handed to every session on this shard (sessions
	// run serially on the worker goroutine, so sharing is race-free). What
	// they keep is sized by the widest search they ran; one per shard
	// instead of one per session keeps memory flat as session counts grow.
	// netSc also points at the engine's endpoint-table store, which every
	// shard shares and the first to sweep past its snapshot moves on. A
	// network session keeps nothing in netSc between two calls: the guard
	// marks, the frontier and the tentative distances of its validation
	// search are rebuilt inside each Update.
	netSc   netvor.SearchScratch
	planeSc vortree.SearchScratch
}

// query is what a session runs, on either metric: core.PlaneQuery and
// core.NetworkQuery both satisfy it. Only a location update takes the
// metric's own position type (see runBatch).
type query interface {
	AppendCurrent(dst []int) []int
	Current() []int
	Metrics() *metrics.Counters
	Advance(next *index.Snapshot, ops []index.Op, covered bool)
	Refresh() (knn []int, recomputed bool, err error)
	Epoch() uint64
}

// updater is a query that takes positions of type P.
type updater[P any] interface {
	Update(pos P) ([]int, error)
}

// update runs one location update on q if q takes positions of type P; ran
// reports whether it did.
func update[P any](q query, pos P) (knn []int, ran bool, err error) {
	u, ran := q.(updater[P])
	if !ran {
		return nil, false, nil
	}
	knn, err = u.Update(pos)
	return knn, true, err
}

// session is one live MkNN query pinned to a shard. seq is the session's
// push-stream sequence counter, touched only by the shard worker, so
// per-session event order needs no synchronization.
type session struct {
	q   query
	seq uint64
}

// message is a mailbox envelope; the worker type-switches on it.
type message interface{ isMessage() }

// createMsg registers a new session under sid.
type createMsg struct {
	sid     SessionID
	network bool
	k       int
	rho     float64
	reply   chan error
}

// closeMsg removes session sid.
type closeMsg struct {
	sid   SessionID
	reply chan error
}

// batchEntry is one location update of a batch, fanned out to the owning
// shard; idx is the position of the result in the caller's results slice.
type batchEntry struct {
	idx int
	sid SessionID
	pos geom.Point
	net roadnet.Position
}

// batchMsg processes a run of location updates. The worker writes into
// results at the entries' disjoint indices and then signals reply once.
// ctx is the originating request's context; a batch whose deadline passed
// while it waited in the mailbox is dropped without executing. trace is
// set only with observability on (the request's trace ID); enqueued is
// the fan-out time, against which the worker reports its mailbox wait
// (the queue stage) and deadline drops.
type batchMsg struct {
	ctx      context.Context
	network  bool
	entries  []batchEntry
	results  []UpdateResult
	reply    chan struct{}
	trace    string
	enqueued time.Time
}

// stateMsg reads one session's current result snapshot, sequenced against
// the session's updates and stream events by riding the same mailbox.
type stateMsg struct {
	sid   SessionID
	reply chan stateReply
}

type stateReply struct {
	state SessionState
	err   error
}

// statsMsg snapshots the shard's serving state.
type statsMsg struct {
	reply chan shardStats
}

type shardStats struct {
	sessions int
	counters metrics.Counters
}

func (createMsg) isMessage() {}
func (closeMsg) isMessage()  {}
func (batchMsg) isMessage()  {}
func (stateMsg) isMessage()  {}
func (statsMsg) isMessage()  {}

// run is the worker loop; it exits when the mailbox is closed. Whenever the
// store has moved on — on an epoch notification, and before any message is
// handled — it first moves the shard's sessions to the newest snapshot
// (sweep), so a request sees every mutation that returned before it was
// sent, on every shard.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		select {
		case msg, ok := <-sh.mailbox:
			if !ok {
				sh.shutdown()
				return
			}
			sh.sweep()
			sh.handle(msg)
		case <-sh.notify:
			sh.sweep()
		}
	}
}

func (sh *shard) handle(msg message) {
	switch m := msg.(type) {
	case createMsg:
		m.reply <- sh.create(m)
	case closeMsg:
		s, ok := sh.sessions[m.sid]
		if !ok {
			m.reply <- fmt.Errorf("%w: %d", ErrUnknownSession, m.sid)
			return
		}
		if sh.events.Watched(uint64(m.sid)) {
			sh.publish(m.sid, s, stream.CauseClose, s.q.Current(), nil, sh.snap.Epoch())
		}
		delete(sh.sessions, m.sid)
		sh.sessionsN.Store(int64(len(sh.sessions)))
		m.reply <- nil
	case batchMsg:
		sh.runBatch(m)
		m.reply <- struct{}{}
	case stateMsg:
		m.reply <- sh.state(m.sid)
	case statsMsg:
		m.reply <- sh.stats()
	}
}

// shutdown drops the sessions on engine close.
func (sh *shard) shutdown() {
	sh.sessions = nil
	sh.sessionsN.Store(0)
}

// sweep moves the shard to the newest snapshot when the store has moved
// on. It reads the store's log of the window once — a window the log no
// longer covers is found here, once for all sessions — brings the shared
// table store along, and advances every session over the window, plane and
// network alike. The paper's lazy invalidation runs inside each session's
// Advance. Unwatched affected sessions recompute at their next location
// update (the lazy path); sessions with push subscribers instead recompute
// eagerly via Refresh, and the resulting delta — the data update's effect
// on their kNN — is published immediately, which is what turns the
// engine's invalidation machinery into user-visible push notifications.
func (sh *shard) sweep() {
	next := sh.store.Current()
	if next == sh.snap {
		return
	}
	var start time.Time
	if sh.obs.Enabled() {
		start = time.Now()
		defer func() { sh.obs.Observe(obs.StageSweep, time.Since(start)) }()
	}
	ops, covered := sh.store.OpsSince(sh.snap.Epoch(), next.Epoch())
	core.FollowTables(&sh.netSc, sh.snap.Network(), next.Network(), ops, covered)
	active := sh.events.Active()
	for sid, s := range sh.sessions {
		if !active || !sh.events.Watched(uint64(sid)) {
			s.q.Advance(next, ops, covered)
			continue
		}
		prev := s.q.AppendCurrent(sh.prevBuf[:0])
		sh.prevBuf = prev[:0]
		s.q.Advance(next, ops, covered)
		knn, recomputed, err := s.q.Refresh()
		if err != nil {
			// The result is gone (e.g. k now exceeds the object count) and
			// the error will surface at the session's next Update. Still
			// publish the transition to the empty view: a subscriber that
			// kept the old members would otherwise hold a silently-wrong
			// view, and the eventual recompute publishes its delta against
			// the empty baseline — the chain stays exact.
			sh.publish(sid, s, stream.CauseData, prev, nil, next.Epoch())
			continue
		}
		if recomputed {
			sh.publish(sid, s, stream.CauseData, prev, knn, next.Epoch())
		}
	}
	sh.snap = next
	sh.epoch.Store(next.Epoch())
}

func (sh *shard) create(m createMsg) error {
	var q query
	if m.network {
		nq, err := core.NewNetworkQuery(sh.snap.Network(), m.k, m.rho)
		if err != nil {
			return err
		}
		nq.UseScratch(&sh.netSc)
		q = nq
	} else {
		pq, err := core.NewPlaneQuery(sh.snap.Plane(), m.k, m.rho)
		if err != nil {
			return err
		}
		pq.UseScratch(&sh.planeSc)
		q = pq
	}
	q.Advance(sh.snap, nil, true) // at the shard's epoch, with nothing to judge
	sh.sessions[m.sid] = &session{q: q}
	sh.sessionsN.Store(int64(len(sh.sessions)))
	return nil
}

func (sh *shard) runBatch(m batchMsg) {
	// A batch whose request deadline already passed is dropped whole: the
	// client stopped waiting, so applying it would only add queue delay for
	// live requests behind it. The entries report ErrExpired rather than
	// silently vanishing.
	if m.ctx != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			for _, e := range m.entries {
				m.results[e.idx] = UpdateResult{Session: e.sid, Err: fmt.Errorf("%w: %v", ErrExpired, cerr)}
			}
			sh.expired.Add(uint64(len(m.entries)))
			if sh.obs.Enabled() {
				sh.obs.Expired(m.trace, sh.id, len(m.entries), time.Since(m.enqueued))
			}
			return
		}
	}
	fault.ShardApplyDelay.Fire()
	var batchStart time.Time
	if sh.obs.Enabled() {
		batchStart = time.Now()
		sh.obs.Observe(obs.StageQueue, batchStart.Sub(m.enqueued))
	}
	for _, e := range m.entries {
		s, ok := sh.sessions[e.sid]
		if !ok {
			m.results[e.idx] = UpdateResult{Session: e.sid, Err: fmt.Errorf("%w: %d", ErrUnknownSession, e.sid)}
			continue
		}
		// Capture the pre-update membership while the session is watched:
		// it is the baseline subscribers hold, and the published delta must
		// apply exactly onto it (the scratch buffer survives until publish,
		// which copies what it keeps).
		watched := sh.events.Watched(uint64(e.sid))
		var prev []int
		if watched {
			prev = s.q.AppendCurrent(sh.prevBuf[:0])
			sh.prevBuf = prev[:0]
		}
		var knn []int
		var ran bool
		var err error
		start := time.Now()
		if m.network {
			knn, ran, err = update(s.q, e.net)
		} else {
			knn, ran, err = update(s.q, e.pos)
		}
		if ran {
			sh.observe(time.Since(start))
		} else {
			// A no-op: not counted as a processed update so Stats
			// throughput and latency reflect real query work only.
			err = fmt.Errorf("engine: session %d is not a %s session", e.sid, batchKind(m.network))
		}
		// The processor's kNN slice is shared and rewritten on the session's
		// next update; copy before it leaves the worker goroutine (the
		// boundary fixed by the core package's slice-ownership contract).
		m.results[e.idx] = UpdateResult{Session: e.sid, KNN: append([]int(nil), knn...), Err: err}
		if watched {
			epoch := s.q.Epoch()
			if err != nil {
				// A failed update can still change the session's state
				// (recompute errors invalidate it); publish whatever
				// transition happened so subscriber views track the
				// session exactly — publish skips no-ops.
				knn = s.q.Current()
			}
			sh.publish(e.sid, s, stream.CauseMove, prev, knn, epoch)
		}
	}
	if sh.obs.Enabled() {
		sh.obs.SlowBatch(m.trace, sh.id, len(m.entries), time.Since(batchStart))
	}
}

// publish emits one stream event for the session unless its kNN
// membership is unchanged from prev, the pre-change result captured by
// the caller (close events always go out). Deltas are against prev —
// exactly the view a subscriber that snapshotted the session holds — so a
// consumer can apply them without ever re-reading the full set. The event
// owns fresh slices and can cross goroutines freely.
func (sh *shard) publish(sid SessionID, s *session, cause stream.Cause, prev, knn []int, epoch uint64) {
	added, removed := sh.diffIDs(prev, knn)
	if cause != stream.CauseClose && len(added) == 0 && len(removed) == 0 {
		return
	}
	s.seq++
	sh.events.Publish(stream.Event{
		Session: uint64(sid),
		Seq:     s.seq,
		Epoch:   epoch,
		Cause:   cause,
		KNN:     append([]int(nil), knn...),
		Added:   added,
		Removed: removed,
	})
}

// state snapshots one session's current result for Engine.State.
func (sh *shard) state(sid SessionID) stateReply {
	s, ok := sh.sessions[sid]
	if !ok {
		return stateReply{err: fmt.Errorf("%w: %d", ErrUnknownSession, sid)}
	}
	return stateReply{state: SessionState{Seq: s.seq, Epoch: s.q.Epoch(), KNN: s.q.Current()}}
}

// diffIDs returns the membership delta from old to new (order-insensitive;
// both lists are O(k)). nil results mean "no change on that side". The
// returned slices are freshly allocated (they ride in published events);
// the membership maps are worker-owned scratch.
func (sh *shard) diffIDs(old, new []int) (added, removed []int) {
	if sh.inOld == nil {
		sh.inOld = make(map[int]struct{}, len(old))
		sh.inNew = make(map[int]struct{}, len(new))
	} else {
		clear(sh.inOld)
		clear(sh.inNew)
	}
	inOld, inNew := sh.inOld, sh.inNew
	for _, id := range old {
		inOld[id] = struct{}{}
	}
	for _, id := range new {
		inNew[id] = struct{}{}
		if _, ok := inOld[id]; !ok {
			added = append(added, id)
		}
	}
	for _, id := range old {
		if _, ok := inNew[id]; !ok {
			removed = append(removed, id)
		}
	}
	return added, removed
}

// observe accounts one processed location update.
func (sh *shard) observe(d time.Duration) {
	sh.hist.Observe(d)
	sh.obs.Observe(obs.StageApply, d)
}

func batchKind(network bool) string {
	if network {
		return "network"
	}
	return "plane"
}

func (sh *shard) stats() shardStats {
	st := shardStats{sessions: len(sh.sessions)}
	for _, s := range sh.sessions {
		st.counters.Add(*s.q.Metrics())
	}
	return st
}
