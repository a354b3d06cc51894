package stream

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func drain(s *Subscriber) []Event {
	var out []Event
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func sorted(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func TestFanOutAndFiltering(t *testing.T) {
	b := NewBroker(0, nil)
	all := b.Subscribe(0)        // wildcard
	only2 := b.Subscribe(0, 2)   // session 2 only
	both := b.Subscribe(0, 1, 2) // sessions 1 and 2
	defer func() { all.Close(); only2.Close(); both.Close() }()

	if !b.Watched(1) || !b.Watched(2) || !b.Watched(99) {
		t.Fatal("wildcard subscriber must make every session watched")
	}
	b.Publish(Event{Session: 1, Seq: 1, Cause: CauseMove, KNN: []int{10}})
	b.Publish(Event{Session: 2, Seq: 1, Cause: CauseMove, KNN: []int{20}})
	b.Publish(Event{Session: 3, Seq: 1, Cause: CauseMove, KNN: []int{30}})

	if got := drain(all); len(got) != 3 {
		t.Errorf("wildcard got %d events, want 3", len(got))
	}
	got2 := drain(only2)
	if len(got2) != 1 || got2[0].Session != 2 {
		t.Errorf("filtered subscriber got %+v, want session 2 only", got2)
	}
	if got := drain(both); len(got) != 2 {
		t.Errorf("two-session subscriber got %d events, want 2", len(got))
	}

	st := b.Stats()
	if st.Subscribers != 3 || st.WatchedSessions != 2 {
		t.Errorf("stats = %+v, want 3 subscribers watching 2 explicit sessions", st)
	}
	if st.Published != 3 || st.Delivered != 6 {
		t.Errorf("stats = %+v, want published=3 delivered=6", st)
	}

	all.Close()
	only2.Close()
	if b.Watched(99) {
		t.Error("session 99 still watched after the wildcard closed")
	}
	if b.Watched(3) {
		t.Error("session 3 watched with no subscriber for it")
	}
	if !b.Watched(1) {
		t.Error("session 1 must stay watched by the remaining subscriber")
	}
}

// TestCoalesceLatestWins: a subscriber holds one pending event per
// session; a newer event replaces the kNN set and merges the delta
// against the pending event's baseline, so the consumer applies one exact
// delta for the whole missed run.
func TestCoalesceLatestWins(t *testing.T) {
	b := NewBroker(0, nil)
	sub := b.Subscribe(0, 7)
	defer sub.Close()

	// Baseline {1,2}; first event adds 3 dropping 1 -> {2,3}; second event
	// adds 4 dropping 3 -> {2,4}. Coalesced delta vs {1,2}: +4 -1.
	b.Publish(Event{Session: 7, Seq: 5, Cause: CauseMove, KNN: []int{2, 3}, Added: []int{3}, Removed: []int{1}})
	b.Publish(Event{Session: 7, Seq: 6, Cause: CauseData, KNN: []int{2, 4}, Added: []int{4}, Removed: []int{3}})

	got := drain(sub)
	if len(got) != 1 {
		t.Fatalf("got %d events, want 1 coalesced", len(got))
	}
	ev := got[0]
	if ev.Seq != 6 || ev.Cause != CauseData {
		t.Errorf("coalesced event kept stale seq/cause: %+v", ev)
	}
	if !reflect.DeepEqual(ev.KNN, []int{2, 4}) {
		t.Errorf("kNN = %v, want latest {2,4}", ev.KNN)
	}
	if !reflect.DeepEqual(sorted(ev.Added), []int{4}) || !reflect.DeepEqual(sorted(ev.Removed), []int{1}) {
		t.Errorf("merged delta = +%v -%v, want +[4] -[1]", ev.Added, ev.Removed)
	}
	if st := b.Stats(); st.Coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", st.Coalesced)
	}
}

// TestOverflowDropsOldest: the queue holds at most depth distinct
// sessions; overflow evicts the oldest pending event and counts it, so a
// slow consumer's memory is bounded and the loss is observable.
func TestOverflowDropsOldest(t *testing.T) {
	const depth = 4
	b := NewBroker(depth, nil)
	sub := b.Subscribe(0) // wildcard, broker default depth
	defer sub.Close()

	for sid := uint64(1); sid <= 10; sid++ {
		b.Publish(Event{Session: sid, Seq: 1, Cause: CauseMove, KNN: []int{int(sid)}})
	}
	if n := sub.Pending(); n != depth {
		t.Fatalf("pending = %d, want bounded at %d", n, depth)
	}
	got := drain(sub)
	if len(got) != depth {
		t.Fatalf("delivered %d events, want %d", len(got), depth)
	}
	for i, ev := range got {
		if want := uint64(7 + i); ev.Session != want {
			t.Errorf("event %d from session %d, want %d (oldest dropped first)", i, ev.Session, want)
		}
	}
	if st := b.Stats(); st.Dropped != 6 {
		t.Errorf("dropped counter = %d, want 6", st.Dropped)
	}
}

// TestSlowConsumerBoundedMemory drives far more events than the queue
// depth through an idle subscriber and checks the bound holds throughout,
// with every lost event accounted as coalesced or dropped.
func TestSlowConsumerBoundedMemory(t *testing.T) {
	const depth = 8
	b := NewBroker(0, nil)
	sub := b.Subscribe(depth)
	defer sub.Close()

	// Phase 1: a few hot sessions, republished over and over — every event
	// past the first per session coalesces. Phase 2: many cold sessions —
	// fresh arrivals overflow the queue and evict the oldest.
	const events = 5000
	for i := 0; i < events; i++ {
		sid := uint64(i % 4)
		if i >= events/2 {
			sid = uint64(i % 64)
		}
		b.Publish(Event{Session: sid, Seq: uint64(i), Cause: CauseMove, KNN: []int{i}})
		if n := sub.Pending(); n > depth {
			t.Fatalf("pending = %d after %d events, bound %d violated", n, i+1, depth)
		}
	}
	st := b.Stats()
	if st.Coalesced+st.Dropped+uint64(sub.Pending()) != events {
		t.Errorf("accounting: coalesced %d + dropped %d + pending %d != published %d",
			st.Coalesced, st.Dropped, sub.Pending(), events)
	}
	if st.Dropped == 0 || st.Coalesced == 0 {
		t.Errorf("overflow policy not exercised: %+v", st)
	}
}

func TestCloseSemantics(t *testing.T) {
	b := NewBroker(0, nil)
	sub := b.Subscribe(0, 1)
	b.Publish(Event{Session: 1, Seq: 1, KNN: []int{1}})
	b.Close()

	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after broker Close")
	}
	if _, ok := sub.Next(); ok {
		t.Error("events must be discarded on close")
	}
	b.Publish(Event{Session: 1, Seq: 2, KNN: []int{2}}) // no-op, no panic
	if got := b.Subscribe(0); got != nil {
		t.Error("Subscribe after Close must return nil")
	}
	b.Close()   // idempotent
	sub.Close() // idempotent after broker close
}

// TestConcurrentPublish hammers one broker from many publishers while
// consumers drain and subscribers churn; run with -race.
func TestConcurrentPublish(t *testing.T) {
	b := NewBroker(16, nil)
	var wg sync.WaitGroup

	consume := func(sub *Subscriber) {
		defer wg.Done()
		for {
			select {
			case <-sub.Done():
				return
			case <-sub.Wake():
				for _, ok := sub.Next(); ok; _, ok = sub.Next() {
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		sub := b.Subscribe(0, uint64(i), uint64(i+1))
		wg.Add(1)
		go consume(sub)
	}
	wild := b.Subscribe(0)
	wg.Add(1)
	go consume(wild)

	var pubs sync.WaitGroup
	for p := 0; p < 8; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < 500; i++ {
				b.Publish(Event{Session: uint64(i % 8), Seq: uint64(i), Cause: CauseMove, KNN: []int{p, i}})
			}
		}(p)
	}
	// Churning subscribers race Publish and Close.
	for c := 0; c < 4; c++ {
		pubs.Add(1)
		go func(c int) {
			defer pubs.Done()
			for i := 0; i < 100; i++ {
				if s := b.Subscribe(0, uint64(c)); s != nil {
					s.Close()
				}
			}
		}(c)
	}
	pubs.Wait()
	b.Close()
	wg.Wait()

	st := b.Stats()
	if st.Subscribers != 0 {
		t.Errorf("subscribers = %d after close", st.Subscribers)
	}
	if st.Published == 0 {
		t.Error("nothing published")
	}
}

func TestStatsString(t *testing.T) {
	// Smoke-check the zero broker's stats are all zero (fresh counters).
	b := NewBroker(0, nil)
	if st := b.Stats(); st != (Stats{}) {
		t.Errorf("fresh broker stats = %+v", st)
	}
	_ = fmt.Sprintf("%+v", b.Stats())
}
