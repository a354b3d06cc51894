package stream

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestStalledSubscriberIsolated arms the stream.write.stall failpoint
// keyed to one session so subscriber A's consumer loop stalls every time
// it pops that session's events, while subscriber B (watching a disjoint
// session set) drains at full speed. A publisher floods both. The broker
// contract under a stuck consumer: A's queue saturates and sheds via
// coalesce/drop-oldest, B loses nothing, and the per-subscriber counters
// balance exactly (published = delivered + coalesced + dropped +
// pending). Run with -race: the stall fires outside the subscriber lock,
// so publishers must never block on it.
func TestStalledSubscriberIsolated(t *testing.T) {
	defer fault.DisarmAll()
	const (
		depth    = 8
		sessions = 64 // > depth distinct sessions so drop-oldest (not coalesce) must fire
		rounds   = 30
	)
	b := NewBroker(depth, nil)
	defer b.Close()

	// A watches sessions 1..64 on a tiny queue, and its Next stalls on
	// session 1's events — while it sleeps, the other 63 sessions pile up
	// past depth 8 and force drop-oldest. B watches the disjoint 101..164
	// with one slot per session, which makes it provably lossless: every
	// burst coalesces in place, so any drop at all means A's stall leaked.
	aIDs := make([]uint64, sessions)
	bIDs := make([]uint64, sessions)
	for i := range aIDs {
		aIDs[i] = uint64(i + 1)
		bIDs[i] = uint64(i + 101)
	}
	subA := b.Subscribe(depth, aIDs...)
	subB := b.Subscribe(sessions, bIDs...)
	defer subA.Close()
	defer subB.Close()
	fault.StreamWriteStall.Arm(fault.Spec{Delay: 3 * time.Millisecond, Key: 1})

	var wg sync.WaitGroup
	drain := func(s *Subscriber, got map[uint64]uint64) {
		defer wg.Done()
		for {
			select {
			case <-s.Done():
				return
			case <-s.Wake():
				for ev, ok := s.Next(); ok; ev, ok = s.Next() {
					if got[ev.Session] >= ev.Seq {
						t.Errorf("session %d: seq went backwards (%d after %d)", ev.Session, ev.Seq, got[ev.Session])
					}
					got[ev.Session] = ev.Seq
				}
			}
		}
	}
	gotA := make(map[uint64]uint64)
	gotB := make(map[uint64]uint64)
	wg.Add(2)
	go drain(subA, gotA)
	go drain(subB, gotB)

	seq := make(map[uint64]uint64)
	publish := func(sid uint64) {
		seq[sid]++
		b.Publish(Event{Session: sid, Seq: seq[sid], KNN: []int{int(sid)}})
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < sessions; i++ {
			publish(aIDs[i])
			publish(bIDs[i])
		}
	}
	// Publishing is done; let both consumers drain what's left (the
	// stalled one has at most depth pending events) so the counter
	// balance below needs no pending term.
	deadline := time.Now().Add(5 * time.Second)
	for (subA.Pending() > 0 || subB.Pending() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if subA.Pending() > 0 || subB.Pending() > 0 {
		t.Fatalf("queues never drained: A=%d B=%d pending", subA.Pending(), subB.Pending())
	}
	subA.Close()
	subB.Close()
	wg.Wait()

	published := uint64(rounds * sessions)

	// The healthy subscriber must not have been touched by A's stall:
	// every session delivered, nothing dropped, latest seq observed.
	if subB.Dropped() != 0 {
		t.Fatalf("healthy subscriber dropped %d events", subB.Dropped())
	}
	for _, sid := range bIDs {
		if gotB[sid] != seq[sid] {
			t.Fatalf("healthy subscriber: session %d at seq %d, want %d", sid, gotB[sid], seq[sid])
		}
	}
	if total := subB.Delivered() + subB.Coalesced(); total != published {
		t.Fatalf("healthy subscriber counters: delivered+coalesced = %d, want %d", total, published)
	}

	// The stalled subscriber must have shed: with 64 distinct pending
	// sessions against depth 8, overflow evicts oldest entries.
	if subA.Dropped() == 0 {
		t.Fatal("stalled subscriber never hit drop-oldest")
	}
	// Counter balance: every published event was delivered, coalesced
	// into a pending entry, or dropped by overflow (queues fully drained
	// above, so there is no pending term).
	if total := subA.Delivered() + subA.Coalesced() + subA.Dropped(); total != published {
		t.Fatalf("stalled subscriber counters: %d delivered + %d coalesced + %d dropped = %d, want %d",
			subA.Delivered(), subA.Coalesced(), subA.Dropped(), total, published)
	}
}
