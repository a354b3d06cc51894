package rtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestBulkLoadInvariants packs every size around the node boundaries, and
// a large one, at two fanouts: the structural invariants hold (even leaf
// depth, every node but the root at least half full, node count
// bookkept), every item is there, kNN agrees with brute force — and they
// still hold after half the items are deleted through the ordinary
// condensing Delete and put back through Insert.
func TestBulkLoadInvariants(t *testing.T) {
	big := 100000
	if testing.Short() {
		big = 20000
	}
	for _, fanout := range []int{4, DefaultMaxEntries} {
		sizes := []int{0, 1, fanout - 1, fanout, fanout + 1, 2*fanout + 1, fanout*fanout + 1, 1000, big}
		for _, n := range sizes {
			src := randomItems(n, int64(n)+1)
			tr := BulkLoad(fanout, slices.Clone(src))
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d, n %d: %v", fanout, n, err)
			}
			if tr.Len() != n || tr.CopiedNodes() != tr.NodeCount() {
				t.Fatalf("fanout %d, n %d: Len %d, %d of %d nodes owned", fanout, n, tr.Len(), tr.CopiedNodes(), tr.NodeCount())
			}
			all := tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)))
			slices.Sort(all)
			for i, id := range all {
				if id != i {
					t.Fatalf("fanout %d, n %d: Search lost or repeated an item near id %d", fanout, n, i)
				}
			}
			if len(all) != n {
				t.Fatalf("fanout %d, n %d: Search found %d items", fanout, n, len(all))
			}
			rng := rand.New(rand.NewSource(int64(n)))
			probe := func(items []Item) {
				t.Helper()
				for i := 0; i < 5; i++ {
					q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
					if got, want := knnIDs(tr, q, 9), bruteKNN(items, q, 9); !sameIDs(got, want) {
						t.Fatalf("fanout %d, n %d: kNN(%v) = %v, brute force %v", fanout, n, q, got, want)
					}
				}
			}
			probe(src)
			for _, it := range src[:n/2] {
				if !tr.Delete(it.ID, it.P) {
					t.Fatalf("fanout %d, n %d: Delete(%d) found nothing", fanout, n, it.ID)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d, n %d, half deleted: %v", fanout, n, err)
			}
			probe(src[n/2:])
			for _, it := range src[:n/2] {
				tr.Insert(it)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d, n %d, refilled: %v", fanout, n, err)
			}
			probe(src)
		}
	}
}

// TestBulkLoadLeavesRoom: the packed tree is dynamic, so its nodes are not
// packed full — inserts into it must not split a leaf each (and removals
// must not then condense the halves), even when the item count is a
// multiple of the fanout.
func TestBulkLoadLeavesRoom(t *testing.T) {
	tr := BulkLoad(DefaultMaxEntries, randomItems(1024*DefaultMaxEntries, 35))
	before := tr.NodeCount()
	extra := randomItems(500, 36)
	for i, it := range extra {
		tr.Insert(Item{ID: 1<<20 + i, P: it.P})
	}
	if split := tr.NodeCount() - before; split > 25 {
		t.Fatalf("500 inserts into a packed tree split %d nodes", split)
	}
	for i, it := range extra {
		if !tr.Delete(1<<20+i, it.P) {
			t.Fatalf("Delete(%d) found nothing", 1<<20+i)
		}
	}
	if tr.NodeCount() < before {
		t.Fatalf("removing what was inserted condensed %d nodes away", before-tr.NodeCount())
	}
}

// TestBulkLoadDegenerate packs inputs whose sort keys tie everywhere: one
// point repeated, a vertical and a horizontal line.
func TestBulkLoadDegenerate(t *testing.T) {
	for name, at := range map[string]func(i int) geom.Point{
		"one point":  func(int) geom.Point { return geom.Pt(5, 5) },
		"vertical":   func(i int) geom.Point { return geom.Pt(5, float64(i)) },
		"horizontal": func(i int) geom.Point { return geom.Pt(float64(i), 5) },
	} {
		items := make([]Item, 700)
		for i := range items {
			items[i] = Item{ID: i, P: at(i)}
		}
		tr := BulkLoad(8, slices.Clone(items))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Equidistant items may come out in any order: compare distances.
		q := geom.Pt(5, 5)
		got, want := tr.KNN(q, 12), bruteKNN(items, q, 12)
		for i, it := range got {
			if d, w := q.Dist2(it.P), q.Dist2(items[want[i]].P); d != w {
				t.Fatalf("%s: kNN[%d] at d2 %g, brute force has %g", name, i, d, w)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: kNN returned %d items, want %d", name, len(got), len(want))
		}
	}
}

// TestBulkLoadCloneIsolation: a handle cloned off a packed tree path-copies
// the windows it writes, so the packed version keeps its answers.
func TestBulkLoadCloneIsolation(t *testing.T) {
	src := randomItems(2000, 33)
	base := BulkLoad(8, slices.Clone(src))
	next := base.Clone()
	for _, it := range src[:40] {
		if !next.Delete(it.ID, it.P) {
			t.Fatalf("Delete(%d) found nothing", it.ID)
		}
	}
	for i := 0; i < 20; i++ {
		next.Insert(Item{ID: 2000 + i, P: geom.Pt(float64(i), float64(i))})
	}
	for _, tr := range []*Tree{base, next} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 50; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if got, want := knnIDs(base, q, 9), bruteKNN(src, q, 9); !sameIDs(got, want) {
			t.Fatalf("packed version changed under its clone: kNN(%v) = %v, want %v", q, got, want)
		}
	}
	if 2*next.CopiedNodes() > next.NodeCount() {
		t.Fatalf("60 mutations copied %d of %d nodes", next.CopiedNodes(), next.NodeCount())
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
		copy(items, src) // BulkLoad reorders its input; ~50 µs of the loop
		BulkLoad(DefaultMaxEntries, items)
	}
}
