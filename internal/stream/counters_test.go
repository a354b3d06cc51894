package stream

import "testing"

// TestPerSubscriberCounters asserts that a stalled subscriber's drops and
// coalesces are attributed to it alone, so benchmarks can separate a stall
// probe from healthy-path delivery.
func TestPerSubscriberCounters(t *testing.T) {
	b := NewBroker(0, nil)
	defer b.Close()
	fast := b.Subscribe(0)
	slow := b.Subscribe(2) // overflows after two distinct sessions
	defer fast.Close()
	defer slow.Close()

	for sid := uint64(1); sid <= 4; sid++ {
		b.Publish(Event{Session: sid, Seq: 1, Cause: CauseMove, KNN: []int{int(sid)}})
	}
	b.Publish(Event{Session: 4, Seq: 2, Cause: CauseMove, KNN: []int{9}}) // coalesces on both

	for ev, ok := fast.Next(); ok; ev, ok = fast.Next() {
		_ = ev
	}
	if got := fast.Delivered(); got != 4 {
		t.Fatalf("fast delivered = %d, want 4", got)
	}
	if fast.Dropped() != 0 {
		t.Fatalf("fast dropped = %d, want 0", fast.Dropped())
	}
	if fast.Coalesced() != 1 {
		t.Fatalf("fast coalesced = %d, want 1", fast.Coalesced())
	}
	if slow.Delivered() != 0 {
		t.Fatalf("slow delivered = %d, want 0", slow.Delivered())
	}
	if got := slow.Dropped(); got != 2 {
		t.Fatalf("slow dropped = %d, want 2", got)
	}
	if got := slow.Coalesced(); got != 1 {
		t.Fatalf("slow coalesced = %d, want 1", got)
	}
	st := b.Stats()
	if st.Dropped != slow.Dropped() || st.Coalesced != fast.Coalesced()+slow.Coalesced() {
		t.Fatalf("broker totals diverge from per-subscriber counters: %+v", st)
	}
}
