package vortree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

func randomPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

func bruteKNN(ix *Index, q geom.Point, k int) []int {
	ids := ix.IDs()
	sort.Slice(ids, func(i, j int) bool {
		di, dj := q.Dist2(ix.Point(ids[i])), q.Dist2(ix.Point(ids[j]))
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

func sameIDSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestBuildAndKNN(t *testing.T) {
	ix, ids, err := Build(testBounds, 16, randomPoints(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 500 || len(ids) != 500 {
		t.Fatalf("Len = %d, want 500", ix.Len())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		for _, k := range []int{1, 4, 12, 17} {
			got := ix.KNN(q, k)
			want := bruteKNN(ix, q, k)
			if !sameIDSet(got, want) {
				t.Fatalf("KNN(%v,%d) = %v, want %v", q, k, got, want)
			}
			for j := 1; j < len(got); j++ {
				if q.Dist2(ix.Point(got[j])) < q.Dist2(ix.Point(got[j-1])) {
					t.Fatalf("KNN(%v,%d) = %v, not in ascending distance order", q, k, got)
				}
			}
		}
	}
}

// TestNNAgreesWithRtreeAndDiagram: the index's cold nearest object (a walk
// from the entry grid) agrees with best-first search of a packed R-tree
// over the same objects and with a brute-force scan of them, inside the
// bounds and past them.
func TestNNAgreesWithRtreeAndDiagram(t *testing.T) {
	ix, ids, err := Build(testBounds, 8, randomPoints(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(ids))
	for i, id := range ids {
		items[i] = rtree.Item{ID: id, P: ix.Point(id)}
	}
	tree := rtree.BulkLoad(8, items)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if i%4 == 0 {
			q = geom.Pt(rng.Float64()*3000-1000, rng.Float64()*3000-1000)
		}
		knn := ix.KNN(q, 1)
		nn, _ := tree.KNN(q, 1)
		if len(knn) != 1 || len(nn) != 1 {
			t.Fatalf("nearest of %v: index %v, rtree %v", q, knn, nn)
		}
		c := ids[0]
		for _, id := range ids {
			if q.Dist2(ix.Point(id)) < q.Dist2(ix.Point(c)) {
				c = id
			}
		}
		a, b := knn[0], nn[0].ID
		if d := q.Dist2(ix.Point(a)); d != q.Dist2(ix.Point(b)) || d != q.Dist2(ix.Point(c)) {
			t.Fatalf("nearest of %v: index %d, rtree %d, brute force %d", q, a, b, c)
		}
	}
}

func TestInsertRemoveConsistency(t *testing.T) {
	ix, ids, err := Build(testBounds, 8, randomPoints(150, 5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	live := append([]int(nil), ids...)
	for step := 0; step < 120; step++ {
		if rng.Intn(2) == 0 && len(live) > 10 {
			i := rng.Intn(len(live))
			if err := ix.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			id, err := ix.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		if ix.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, ix.Len(), len(live))
		}
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if got, want := ix.KNN(q, 6), bruteKNN(ix, q, 6); !sameIDSet(got, want) {
			t.Fatalf("step %d: KNN = %v, want %v", step, got, want)
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	ix := New(testBounds)
	id1, err := ix.Insert(geom.Pt(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ix.Insert(geom.Pt(10, 10))
	if err != nil {
		t.Fatalf("duplicate insert errored: %v", err)
	}
	if id1 != id2 {
		t.Errorf("duplicate insert got id %d, want %d", id2, id1)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
}

func TestRemoveUnknown(t *testing.T) {
	ix := New(testBounds)
	if err := ix.Remove(42); err == nil {
		t.Error("expected error removing unknown id")
	}
}

func TestKNNEmptyAndSmall(t *testing.T) {
	ix := New(testBounds)
	if got := ix.KNN(geom.Pt(5, 5), 3); got != nil {
		t.Errorf("KNN on empty index = %v", got)
	}
	id, _ := ix.Insert(geom.Pt(7, 7))
	if got := ix.KNN(geom.Pt(5, 5), 0); got != nil {
		t.Errorf("KNN with k=0 = %v, want nil", got)
	}
	if got := ix.KNN(geom.Pt(5, 5), 3); len(got) != 1 || got[0] != id {
		t.Errorf("KNN with 1 object = %v", got)
	}
}

func BenchmarkVorKNN10k(b *testing.B) {
	ix, _, err := Build(testBounds, 16, randomPoints(10000, 7))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(qs[i%len(qs)], 8)
	}
}
