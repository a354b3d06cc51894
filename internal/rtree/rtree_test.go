package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

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

// bruteKNN returns the k nearest items to q, ties by id.
func bruteKNN(items []Item, q geom.Point, k int) []Item {
	s := slices.Clone(items)
	sort.Slice(s, func(i, j int) bool {
		if di, dj := q.Dist2(s[i].P), q.Dist2(s[j].P); di != dj {
			return di < dj
		}
		return s[i].ID < s[j].ID
	})
	return s[:min(k, len(s))]
}

// checkTree verifies the packed tree's structure: every leaf at one depth,
// every node but the root between half full and full, every rectangle
// covering what is under it, and n items in all.
func checkTree(t *testing.T, tr *Tree, fanout, n int) {
	t.Helper()
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if n == 0 {
		return
	}
	leafDepth, items := -1, 0
	var walk func(nd *node, depth int) error
	walk = func(nd *node, depth int) error {
		entries := len(nd.items) + len(nd.children)
		if entries > fanout || depth > 0 && entries < fanout/2 {
			return fmt.Errorf("node at depth %d holds %d entries, fanout %d", depth, entries, fanout)
		}
		if nd.children == nil {
			if leafDepth >= 0 && leafDepth != depth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			for _, it := range nd.items {
				if !nd.rect.Contains(it.P) {
					return fmt.Errorf("item %d outside its leaf", it.ID)
				}
			}
			items += len(nd.items)
			return nil
		}
		for _, c := range nd.children {
			if !nd.rect.ContainsRect(c.rect) {
				return fmt.Errorf("child rectangle escapes its parent at depth %d", depth)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tr.root, 0); err != nil {
		t.Fatal(err)
	}
	if items != n {
		t.Fatalf("tree holds %d items, want %d", items, n)
	}
}

// checkKNN compares one kNN answer with brute force rank by rank, by
// distance: ties may reorder ids.
func checkKNN(t *testing.T, got, want []Item, q geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kNN(%v) returned %d items, want %d", q, len(got), len(want))
	}
	for i := range got {
		if d, w := q.Dist2(got[i].P), q.Dist2(want[i].P); d != w {
			t.Fatalf("kNN(%v)[%d] at d2 %g, brute force has %g", q, i, d, w)
		}
	}
}

// TestInsertAndLen: items enter the static tree only through BulkLoad,
// and every one of them is in it.
func TestInsertAndLen(t *testing.T) {
	tr := BulkLoad(16, randomItems(500, 1))
	checkTree(t, tr, 16, 500)
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, fanout := range []int{4, 8, 32} {
		items := randomItems(300, 4)
		tr := BulkLoad(fanout, slices.Clone(items))
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 60; trial++ {
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			for _, k := range []int{1, 5, 20} {
				got, _ := tr.KNN(q, k)
				checkKNN(t, got, bruteKNN(items, q, k), q)
			}
		}
	}
}

// TestKNNIteratorIsSorted: the best-first scan reports items in ascending
// distance, each once — up to every item in the tree.
func TestKNNIteratorIsSorted(t *testing.T) {
	tr := BulkLoad(8, randomItems(200, 6))
	q := geom.Pt(321, 654)
	got, _ := tr.KNN(q, 1000)
	if len(got) != 200 {
		t.Fatalf("scan yielded %d items, want 200", len(got))
	}
	seen := make(map[int]bool)
	prev := -1.0
	for _, it := range got {
		d := q.Dist2(it.P)
		if d < prev {
			t.Fatalf("scan out of order: %g after %g", d, prev)
		}
		if seen[it.ID] {
			t.Fatalf("item %d reported twice", it.ID)
		}
		seen[it.ID] = true
		prev = d
	}
}

func TestKNNEdgeCases(t *testing.T) {
	if got, v := BulkLoad(16, nil).KNN(geom.Pt(0, 0), 5); got != nil || v != 0 {
		t.Errorf("KNN on an empty tree = %v after %d visits, want nil", got, v)
	}
	tr := BulkLoad(16, []Item{{ID: 1, P: geom.Pt(3, 4)}})
	if got, _ := tr.KNN(geom.Pt(0, 0), 0); got != nil {
		t.Errorf("KNN k=0 = %v, want nil", got)
	}
	if got, _ := tr.KNN(geom.Pt(0, 0), 10); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("KNN k>n = %v, want the single item", got)
	}
}

// TestDuplicatePointsAllowed: items at one point all go in and all come
// back out.
func TestDuplicatePointsAllowed(t *testing.T) {
	p := geom.Pt(5, 5)
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{ID: i, P: p}
	}
	tr := BulkLoad(4, items)
	checkTree(t, tr, 4, 20)
	got, _ := tr.KNN(p, 20)
	if len(got) != 20 {
		t.Fatalf("KNN returned %d, want 20", len(got))
	}
	ids := make([]int, len(got))
	for i, it := range got {
		ids[i] = it.ID
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("KNN lost or repeated an item near id %d: %v", i, ids)
		}
	}
}

// TestVisitsCountedPerSearch: the visit count belongs to the search, not
// the tree — repeated, it is the same — and a wider search visits no fewer
// nodes.
func TestVisitsCountedPerSearch(t *testing.T) {
	tr := BulkLoad(8, randomItems(1000, 12))
	q := geom.Pt(500, 500)
	_, v1 := tr.KNN(q, 10)
	_, v2 := tr.KNN(q, 10)
	_, wide := tr.KNN(q, 200)
	if v1 == 0 || v1 != v2 || wide < v1 {
		t.Errorf("visits of two identical searches %d, %d and of a wider one %d; want equal, > 0 and no fewer", v1, v2, wide)
	}
}

// TestBulkLoadInvariants packs every size around the node boundaries, and
// a large one, at three fanouts: the structure holds, and kNN agrees with
// brute force — up to every item, all in ascending distance.
func TestBulkLoadInvariants(t *testing.T) {
	big := 100000
	if testing.Short() {
		big = 20000
	}
	for _, fanout := range []int{4, 8, 16} {
		for _, n := range []int{0, 1, fanout - 1, fanout, fanout + 1, 2*fanout + 1, fanout*fanout + 1, 1000, big} {
			items := randomItems(n, int64(n)+1)
			tr := BulkLoad(fanout, slices.Clone(items))
			checkTree(t, tr, fanout, n)
			rng := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < 10; trial++ {
				q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				for _, k := range []int{1, 5, 20} {
					got, _ := tr.KNN(q, k)
					checkKNN(t, got, bruteKNN(items, q, k), q)
				}
			}
			if n <= 1000 {
				q := geom.Pt(321, 654)
				got, _ := tr.KNN(q, n)
				checkKNN(t, got, bruteKNN(items, q, n), q)
			}
		}
	}
}

// TestBulkLoadDegenerate packs inputs whose sort keys tie everywhere: one
// point repeated, a vertical and a horizontal line.
func TestBulkLoadDegenerate(t *testing.T) {
	for _, at := range map[string]func(i int) geom.Point{
		"one point":  func(int) geom.Point { return geom.Pt(5, 5) },
		"vertical":   func(i int) geom.Point { return geom.Pt(5, float64(i)) },
		"horizontal": func(i int) geom.Point { return geom.Pt(float64(i), 5) },
	} {
		items := make([]Item, 700)
		for i := range items {
			items[i] = Item{ID: i, P: at(i)}
		}
		tr := BulkLoad(8, slices.Clone(items))
		checkTree(t, tr, 8, len(items))
		q := geom.Pt(5, 5)
		for _, k := range []int{12, 700} {
			got, _ := tr.KNN(q, k)
			checkKNN(t, got, bruteKNN(items, q, k), q)
		}
	}
}

// BenchmarkBulkLoad100k packs 100k uniform items; SNIPPETS.md Snippet 3
// (SimpleRTree: 38 ms, 19 allocations) is the yardstick.
func BenchmarkBulkLoad100k(b *testing.B) {
	src := randomItems(100000, 31)
	items := make([]Item, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(items, src) // BulkLoad reorders its input
		BulkLoad(16, items)
	}
}
