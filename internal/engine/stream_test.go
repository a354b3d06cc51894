package engine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/stream"
	"repro/internal/workload"
)

// collector consumes a subscriber on its own goroutine and keeps, per
// session, the ordered event log plus the view a delta-applying client
// would hold.
type collector struct {
	mu     sync.Mutex
	events map[uint64][]stream.Event
	stop   chan struct{}
	wg     sync.WaitGroup
}

func collect(sub *stream.Subscriber) *collector {
	c := &collector{events: make(map[uint64][]stream.Event), stop: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.stop:
				return
			case <-sub.Done():
				return
			case <-sub.Wake():
				for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
					c.mu.Lock()
					c.events[ev.Session] = append(c.events[ev.Session], ev)
					c.mu.Unlock()
				}
			}
		}
	}()
	return c
}

func (c *collector) close() {
	close(c.stop)
	c.wg.Wait()
}

// latest returns the full kNN set of the session's newest event (nil when
// no event arrived yet).
func (c *collector) latest(sid uint64) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	evs := c.events[sid]
	if len(evs) == 0 {
		return nil
	}
	return evs[len(evs)-1].KNN
}

func (c *collector) log(sid uint64) []stream.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]stream.Event(nil), c.events[sid]...)
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]struct{}, len(a))
	for _, id := range a {
		in[id] = struct{}{}
	}
	for _, id := range b {
		if _, ok := in[id]; !ok {
			return false
		}
	}
	return true
}

// applyDelta checks ev's delta against the consumer's view and returns
// the new view: (view \ Removed) ∪ Added must have exactly the members of
// ev.KNN, or the delta chain is corrupt.
func applyDelta(t *testing.T, view []int, ev stream.Event) []int {
	t.Helper()
	next := make(map[int]struct{}, len(view)+len(ev.Added))
	for _, id := range view {
		next[id] = struct{}{}
	}
	for _, id := range ev.Removed {
		if _, ok := next[id]; !ok {
			t.Errorf("session %d seq %d removes %d not in the consumer view", ev.Session, ev.Seq, id)
		}
		delete(next, id)
	}
	for _, id := range ev.Added {
		if _, ok := next[id]; ok {
			t.Errorf("session %d seq %d adds %d already in the consumer view", ev.Session, ev.Seq, id)
		}
		next[id] = struct{}{}
	}
	out := make([]int, 0, len(next))
	for id := range next {
		out = append(out, id)
	}
	if !sameMembers(out, ev.KNN) {
		t.Errorf("session %d seq %d: delta-applied view %v != event kNN %v", ev.Session, ev.Seq, out, ev.KNN)
	}
	return ev.KNN
}

// TestStreamNotificationOrdering (run with -race) proves the ISSUE's
// ordering contract: across shard boundaries, a subscriber observes the
// post-insert kNN for every affected session, with per-session sequence
// numbers strictly increasing and every delta applying cleanly onto the
// previous one — no event lost, duplicated, or reordered.
func TestStreamNotificationOrdering(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	e, err := New(Config{Shards: 8, Bounds: bounds, Objects: workload.Uniform(300, bounds, 7)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const (
		nSessions = 64
		k         = 4
	)
	rng := rand.New(rand.NewSource(99))
	sids := make([]SessionID, nSessions)
	pos := make([]geom.Point, nSessions)
	batch := make([]LocationUpdate, nSessions)
	for i := range sids {
		sid, err := e.CreateSession(k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
		pos[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		batch[i] = LocationUpdate{Session: sid, Pos: pos[i]}
	}

	sub := e.Stream().Subscribe(0) // wildcard: every session, every shard
	c := collect(sub)
	defer c.close()
	defer sub.Close()

	// Baseline: one location update per session; each publishes its first
	// event (full kNN as Added).
	results, err := updateBatch(e, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("session %d: %v", r.Session, r.Err)
		}
	}

	// Data churn: insert objects right next to sessions (guaranteed to
	// enter their kNN) plus some background noise, across all shards.
	for i := 0; i < 40; i++ {
		var p geom.Point
		if i%2 == 0 {
			at := pos[(i*7)%nSessions]
			p = geom.Pt(at.X+0.25+rng.Float64(), at.Y+0.25+rng.Float64())
		} else {
			p = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		if !bounds.Contains(p) {
			p = geom.Pt(500+rng.Float64(), 500+rng.Float64())
		}
		if _, err := insertObject(e, p); err != nil {
			t.Fatal(err)
		}
	}

	// Ground truth: a fresh session at each position sees the post-insert
	// kNN through the ordinary pull path.
	truth := make([][]int, nSessions)
	for i := range truth {
		vid, err := e.CreateSession(k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := updateBatch(e, []LocationUpdate{{Session: vid, Pos: pos[i]}})
		if err != nil || res[0].Err != nil {
			t.Fatalf("verify session: %v / %v", err, res[0].Err)
		}
		truth[i] = res[0].KNN
		if err := e.CloseSession(vid); err != nil {
			t.Fatal(err)
		}
	}

	// The subscribers' views must converge to the ground truth without any
	// session ever polling again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stale := -1
		for i := range sids {
			view := c.latest(uint64(sids[i]))
			if view == nil {
				view = results[i].KNN // only baseline event coalesced away — impossible here, but be safe
			}
			if !sameMembers(view, truth[i]) {
				stale = i
				break
			}
		}
		if stale < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never converged: view %v, want %v (events: %+v)",
				sids[stale], c.latest(uint64(sids[stale])), truth[stale], c.log(uint64(sids[stale])))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Per-session event-log invariants: strictly increasing seq, strictly
	// increasing epoch on data events, and a clean delta chain from the
	// empty view to the final kNN.
	dataEvents := 0
	for i := range sids {
		evs := c.log(uint64(sids[i]))
		if len(evs) == 0 {
			t.Errorf("session %d: no events at all", sids[i])
			continue
		}
		var view []int
		var lastSeq uint64
		for _, ev := range evs {
			if ev.Seq <= lastSeq {
				t.Errorf("session %d: seq %d after %d — reordered or duplicated", sids[i], ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Cause == stream.CauseData {
				dataEvents++
			}
			view = applyDelta(t, view, ev)
		}
		if !sameMembers(view, truth[i]) {
			t.Errorf("session %d: replayed view %v != ground truth %v", sids[i], view, truth[i])
		}
	}
	if dataEvents == 0 {
		t.Error("no data-update events observed; eager recompute path never fired")
	}
}

// TestStreamEagerPushWithoutPolling is the engine-level half of the
// acceptance criterion: a subscribed session receives the post-insert kNN
// delta triggered purely by the data update — the session never calls
// Update again.
func TestStreamEagerPushWithoutPolling(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	e, err := New(Config{Shards: 4, Bounds: bounds, Objects: workload.Uniform(200, bounds, 3)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sid, err := e.CreateSession(3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := updateBatch(e, []LocationUpdate{{Session: sid, Pos: geom.Pt(500, 500)}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("update: %v / %v", err, res[0].Err)
	}

	sub := e.Stream().Subscribe(0, uint64(sid))
	defer sub.Close()

	// This object lands a hair from the session — it must become its 1-NN.
	id, err := insertObject(e, geom.Pt(500.01, 500.01))
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no push within 5s of the insert")
		case <-sub.Wake():
			for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
				if ev.Cause != stream.CauseData {
					continue
				}
				found := false
				for _, a := range ev.Added {
					found = found || a == id
				}
				if !found {
					t.Fatalf("data event %+v does not add object %d", ev, id)
				}
				inKNN := false
				for _, m := range ev.KNN {
					inKNN = inKNN || m == id
				}
				if !inKNN {
					t.Fatalf("pushed kNN %v misses the inserted object %d", ev.KNN, id)
				}
				return
			}
		}
	}
}

// TestStreamDeltaChainSurvivesRefreshError: when removals make k
// unsatisfiable, a watched session's eager recompute fails — the
// subscriber must then see the transition to the empty view, and the
// eventual recovery must delta from that empty baseline, keeping the
// delta chain exact with no undetectable gap.
func TestStreamDeltaChainSurvivesRefreshError(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	objs := workload.Uniform(6, bounds, 21)
	e, err := New(Config{Shards: 2, Bounds: bounds, Objects: objs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sid, err := e.CreateSession(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.Pt(50, 50)
	if res, err := updateBatch(e, []LocationUpdate{{Session: sid, Pos: pos}}); err != nil || res[0].Err != nil {
		t.Fatalf("update: %v / %v", err, res[0].Err)
	}

	sub := e.Stream().Subscribe(0, uint64(sid))
	c := collect(sub)
	defer c.close()
	defer sub.Close()

	// The client baseline, exactly as an SSE subscriber obtains it.
	st0, err := e.State(sid)
	if err != nil {
		t.Fatal(err)
	}

	// Drop to 4 objects: k=5 is now unsatisfiable, the eager recompute
	// errors, and the subscriber must be told its view is stale.
	if err := removeObject(e, 0); err != nil {
		t.Fatal(err)
	}
	if err := removeObject(e, 1); err != nil {
		t.Fatal(err)
	}
	waitFor := func(desc string, pred func([]stream.Event) bool) []stream.Event {
		deadline := time.Now().Add(5 * time.Second)
		for {
			evs := c.log(uint64(sid))
			if pred(evs) {
				return evs
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s; events: %+v", desc, evs)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("empty-view event", func(evs []stream.Event) bool {
		return len(evs) > 0 && len(evs[len(evs)-1].KNN) == 0
	})

	// Recovery: two inserts restore k-satisfiability; the recompute's
	// delta must build the new view from the published empty baseline.
	// The first insert alone already makes 5 objects, so the wait is for
	// the event that holds the second one, not for the first full kNN set.
	if _, err := insertObject(e, geom.Pt(50.5, 50.5)); err != nil {
		t.Fatal(err)
	}
	second, err := insertObject(e, geom.Pt(49.5, 49.5))
	if err != nil {
		t.Fatal(err)
	}
	evs := waitFor("recovered kNN", func(evs []stream.Event) bool {
		return len(evs) > 0 && slices.Contains(evs[len(evs)-1].KNN, second)
	})

	// The whole chain — snapshot baseline, stale notice, recovery — must
	// apply cleanly and end at the pull-path truth. (Coalescing merges
	// deltas exactly, so only monotonicity is required of Seq.)
	view := st0.KNN
	lastSeq := st0.Seq
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Errorf("seq %d after %d: reordered or duplicated", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		view = applyDelta(t, view, ev)
	}
	vid, err := e.CreateSession(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := updateBatch(e, []LocationUpdate{{Session: vid, Pos: pos}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("verify: %v / %v", err, res[0].Err)
	}
	if !sameMembers(view, res[0].KNN) {
		t.Errorf("replayed view %v != pull truth %v", view, res[0].KNN)
	}
}

// TestStreamSlowConsumerBounded: a subscriber that never drains cannot
// grow engine memory — its queue stays at its depth and the overflow is
// visible in the engine stats (the acceptance criterion's observability
// half).
func TestStreamSlowConsumerBounded(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	e, err := New(Config{Shards: 4, Bounds: bounds, Objects: workload.Uniform(200, bounds, 5)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nSessions = 32
	rng := rand.New(rand.NewSource(11))
	batch := make([]LocationUpdate, nSessions)
	for i := range batch {
		sid, err := e.CreateSession(3, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = LocationUpdate{Session: sid, Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
	}

	const depth = 2
	sub := e.Stream().Subscribe(depth) // wildcard, tiny queue, never drained
	defer sub.Close()

	for round := 0; round < 20; round++ {
		for i := range batch {
			batch[i].Pos = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		if _, err := updateBatch(e, batch); err != nil {
			t.Fatal(err)
		}
		if n := sub.Pending(); n > depth {
			t.Fatalf("slow consumer holds %d events, bound %d violated", n, depth)
		}
	}

	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream.Subscribers != 1 {
		t.Errorf("stream subscribers = %d, want 1", st.Stream.Subscribers)
	}
	if st.Stream.Dropped+st.Stream.Coalesced == 0 {
		t.Errorf("overflow policy invisible in stats: %+v", st.Stream)
	}
	if st.Stream.Published == 0 {
		t.Error("no events published")
	}
}
