package rtree

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
)

func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, P: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
	}
	return items
}

func buildTree(t testing.TB, items []Item, fanout int) *Tree {
	t.Helper()
	tr := New(fanout)
	for _, it := range items {
		tr.Insert(it)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func bruteKNN(items []Item, q geom.Point, k int) []int {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := q.Dist2(items[idx[a]].P), q.Dist2(items[idx[b]].P)
		if da != db {
			return da < db
		}
		return items[idx[a]].ID < items[idx[b]].ID
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = items[idx[i]].ID
	}
	return out
}

func TestInsertAndLen(t *testing.T) {
	items := randomItems(500, 1)
	tr := buildTree(t, items, DefaultMaxEntries)
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	items := randomItems(400, 2)
	tr := buildTree(t, items, 8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		b := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		r := geom.NewRect(a, b)
		got := tr.Search(r)
		var want []int
		for _, it := range items {
			if r.Contains(it.P) {
				want = append(want, it.ID)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("Search(%v): %d results, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Search(%v) = %v, want %v", r, got, want)
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, fanout := range []int{4, 8, 32} {
		items := randomItems(300, 4)
		tr := buildTree(t, items, fanout)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 60; trial++ {
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			for _, k := range []int{1, 5, 20} {
				got := tr.KNN(q, k)
				want := bruteKNN(items, q, k)
				if len(got) != len(want) {
					t.Fatalf("fanout %d: KNN returned %d, want %d", fanout, len(got), len(want))
				}
				for i := range got {
					// Compare by distance (ties may reorder ids).
					gd := q.Dist2(got[i].P)
					wd := q.Dist2(items[want[i]].P)
					if gd != wd {
						t.Fatalf("fanout %d KNN(%v,%d)[%d] dist %g, want %g",
							fanout, q, k, i, gd, wd)
					}
				}
			}
		}
	}
}

func TestKNNIteratorIsSorted(t *testing.T) {
	items := randomItems(200, 6)
	tr := buildTree(t, items, 8)
	q := geom.Pt(321, 654)
	it := tr.NewKNNIterator(q)
	prev := -1.0
	count := 0
	for {
		item, ok := it.Next()
		if !ok {
			break
		}
		d := q.Dist2(item.P)
		if d < prev {
			t.Fatalf("iterator out of order: %g after %g", d, prev)
		}
		prev = d
		count++
	}
	if count != 200 {
		t.Fatalf("iterator yielded %d items, want 200", count)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	tr := New(DefaultMaxEntries)
	if got := tr.KNN(geom.Pt(0, 0), 5); got != nil {
		t.Errorf("KNN on empty tree = %v, want nil", got)
	}
	tr.Insert(Item{ID: 1, P: geom.Pt(3, 4)})
	if got := tr.KNN(geom.Pt(0, 0), 0); got != nil {
		t.Errorf("KNN k=0 = %v, want nil", got)
	}
	got := tr.KNN(geom.Pt(0, 0), 10)
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("KNN k>n = %v, want the single item", got)
	}
}

func TestDelete(t *testing.T) {
	items := randomItems(300, 7)
	tr := buildTree(t, items, 8)
	rng := rand.New(rand.NewSource(8))
	perm := rng.Perm(len(items))
	for i, pi := range perm {
		it := items[pi]
		if !tr.Delete(it.ID, it.P) {
			t.Fatalf("Delete(%d) failed", it.ID)
		}
		if tr.Len() != len(items)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
		}
		if i%25 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Delete(999, geom.Pt(1, 1)) {
		t.Error("Delete on empty tree returned true")
	}
}

func TestDeleteKeepsKNNCorrect(t *testing.T) {
	items := randomItems(250, 9)
	tr := buildTree(t, items, 8)
	rng := rand.New(rand.NewSource(10))
	live := append([]Item(nil), items...)
	for step := 0; step < 150; step++ {
		i := rng.Intn(len(live))
		if !tr.Delete(live[i].ID, live[i].P) {
			t.Fatalf("delete %d failed", live[i].ID)
		}
		live = append(live[:i], live[i+1:]...)
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got := tr.KNN(q, 5)
		want := bruteKNN(live, q, 5)
		if len(got) != len(want) {
			t.Fatalf("step %d: KNN size %d, want %d", step, len(got), len(want))
		}
		for j := range got {
			if q.Dist2(got[j].P) != q.Dist2(live[indexOf(live, want[j])].P) {
				t.Fatalf("step %d: KNN mismatch", step)
			}
		}
	}
}

func indexOf(items []Item, id int) int {
	for i, it := range items {
		if it.ID == id {
			return i
		}
	}
	return -1
}

func TestDeleteNonexistent(t *testing.T) {
	items := randomItems(50, 11)
	tr := buildTree(t, items, 8)
	if tr.Delete(9999, geom.Pt(500, 500)) {
		t.Error("deleting unknown id returned true")
	}
	if tr.Len() != 50 {
		t.Errorf("Len changed to %d", tr.Len())
	}
}

func TestDuplicatePointsAllowed(t *testing.T) {
	tr := New(4)
	p := geom.Pt(5, 5)
	for i := 0; i < 20; i++ {
		tr.Insert(Item{ID: i, P: p})
	}
	if tr.Len() != 20 {
		t.Fatalf("Len = %d, want 20", tr.Len())
	}
	got := tr.KNN(p, 20)
	if len(got) != 20 {
		t.Fatalf("KNN returned %d, want 20", len(got))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInsertSearch(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 5
		items := randomItems(n, seed)
		tr := New(6)
		for _, it := range items {
			tr.Insert(it)
		}
		if tr.CheckInvariants() != nil || tr.Len() != n {
			return false
		}
		all := tr.Search(geom.NewRect(geom.Pt(-1, -1), geom.Pt(1001, 1001)))
		return len(all) == n
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestVisitsCountedPerSearch(t *testing.T) {
	items := randomItems(1000, 12)
	tr := buildTree(t, items, 8)
	_, v1 := tr.KNNWithVisits(geom.Pt(500, 500), 10)
	_, v2 := tr.KNNWithVisits(geom.Pt(500, 500), 10)
	if v1 == 0 || v1 != v2 {
		t.Errorf("visits of two identical searches = %d, %d; want equal and > 0", v1, v2)
	}
}

// TestIteratorReleaseDropsFrontier: a caller that takes only a prefix of
// the scan releases the iterator, after which it pins no node and reports
// exhaustion while still reporting what the scan visited.
func TestIteratorReleaseDropsFrontier(t *testing.T) {
	tr := buildTree(t, randomItems(1000, 12), 8)
	it := tr.NewKNNIterator(geom.Pt(500, 500))
	if _, ok := it.Next(); !ok {
		t.Fatal("empty scan")
	}
	visited := it.Visited()
	it.Release()
	for i, e := range it.pq[:cap(it.pq)] {
		if e.node != nil {
			t.Fatalf("frontier slot %d still holds a node after Release", i)
		}
	}
	if _, ok := it.Next(); ok {
		t.Error("Next yielded an item after Release")
	}
	if it.Visited() != visited || visited == 0 {
		t.Errorf("Visited = %d after Release, want %d", it.Visited(), visited)
	}
}

// TestIteratorReleaseUnpinsSupersededNodes replays on the R-tree what the
// snapshot store does per published epoch — Clone, mutate the clone, drop
// the old handle — beside a long-lived iterator (a shard's scratch) that
// searched the old version and kept only the first item. The old version's
// copied spine is garbage then, and must be collectable: the unreleased
// frontier pins it, Release lets it go.
func TestIteratorReleaseUnpinsSupersededNodes(t *testing.T) {
	var it KNNIterator
	collected := make(chan struct{}, 1)
	func() {
		tr := buildTree(t, randomItems(2000, 21), 8)
		// Search one corner, mutate the opposite one: the subtree the
		// mutation copies is still waiting in the search frontier.
		it.Reset(tr, geom.Pt(10, 10))
		if _, ok := it.Next(); !ok {
			t.Fatal("empty scan")
		}
		next := tr.Clone()
		next.Insert(Item{ID: 5000, P: geom.Pt(990, 990)})
		var superseded []*node
		for _, c := range tr.root.children {
			if !slices.Contains(next.root.children, c) {
				superseded = append(superseded, c)
			}
		}
		if len(superseded) != 1 {
			t.Fatalf("setup: the insert superseded %d children of the old root, want 1", len(superseded))
		}
		if !slices.ContainsFunc(it.pq, func(e knnEntry) bool { return e.node == superseded[0] }) {
			t.Fatal("setup: the superseded subtree is not in the search frontier")
		}
		runtime.SetFinalizer(superseded[0], func(*node) { collected <- struct{}{} })
	}()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	select {
	case <-collected:
		t.Fatal("superseded subtree collected while the frontier still referenced it")
	default:
	}
	it.Release()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("superseded subtree still reachable after Release and GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	items := randomItems(b.N, 13)
	tr := New(DefaultMaxEntries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(items[i])
	}
}

func BenchmarkKNN10k(b *testing.B) {
	items := randomItems(10000, 14)
	tr := New(DefaultMaxEntries)
	for _, it := range items {
		tr.Insert(it)
	}
	rng := rand.New(rand.NewSource(15))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(qs[i%len(qs)], 8)
	}
}
