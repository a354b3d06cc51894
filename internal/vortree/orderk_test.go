package vortree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

func buildRandom(t testing.TB, n int, seed int64) (*Index, []int) {
	t.Helper()
	ix, ids, err := Build(testBounds, 16, randomPoints(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ix, ids
}

// TestNearestMatchesBruteForce: the triangulation's cold nearest vertex,
// the walk the order-1 cell of a query starts from, is the nearest object.
func TestNearestMatchesBruteForce(t *testing.T) {
	ix, _ := buildRandom(t, 300, 1)
	rng := rand.New(rand.NewSource(2))
	var ring delaunay.RingScratch
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got, _, _ := ix.tri.NearestFrom(q, NoHint, 0, &ring)
		want := bruteKNN(ix, q, 1)[0]
		if got != want {
			gd, wd := q.Dist(ix.Point(got)), q.Dist(ix.Point(want))
			if math.Abs(gd-wd) > 1e-9 {
				t.Fatalf("nearest of %v = %d (d=%g), want %d (d=%g)", q, got, gd, want, wd)
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	ix, _ := buildRandom(t, 400, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		for _, k := range []int{1, 3, 8, 17} {
			got := ix.KNN(q, k)
			want := bruteKNN(ix, q, k)
			if !sameIDSet(got, want) {
				t.Fatalf("KNN(%v, %d) = %v, want %v", q, k, got, want)
			}
			// KNN promises ascending distance order.
			for j := 1; j < len(got); j++ {
				if q.Dist2(ix.Point(got[j])) < q.Dist2(ix.Point(got[j-1])) {
					t.Fatalf("KNN result not sorted by distance: %v", got)
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ix := New(testBounds)
	if got := ix.KNN(geom.Pt(1, 1), 3); got != nil {
		t.Errorf("KNN on empty index = %v, want nil", got)
	}
	if _, err := ix.Insert(geom.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if got := ix.KNN(geom.Pt(1, 1), 0); got != nil {
		t.Errorf("KNN with k=0 = %v, want nil", got)
	}
	got := ix.KNN(geom.Pt(1, 1), 10)
	if len(got) != 1 {
		t.Errorf("KNN with k > n returned %d ids, want 1", len(got))
	}
}

func TestDynamicInsertRemoveKeepsKNNCorrect(t *testing.T) {
	ix, ids := buildRandom(t, 200, 18)
	rng := rand.New(rand.NewSource(19))
	live := append([]int(nil), ids...)
	for step := 0; step < 100; step++ {
		if rng.Intn(2) == 0 && len(live) > 20 {
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
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if got, want := ix.KNN(q, 5), bruteKNN(ix, q, 5); !sameIDSet(got, want) {
			t.Fatalf("step %d: KNN = %v, want %v", step, got, want)
		}
	}
}

func TestCellContainsOwnRegion(t *testing.T) {
	ix, _ := buildRandom(t, 150, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		nearest := ix.KNN(q, 1)[0]
		cell, err := ix.Cell(nearest)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.Contains(q) {
			t.Fatalf("cell of nearest site %d does not contain query %v", nearest, q)
		}
	}
}

func TestCellsPartitionBounds(t *testing.T) {
	ix, ids := buildRandom(t, 120, 7)
	var total float64
	for _, id := range ids {
		cell, err := ix.Cell(id)
		if err != nil {
			t.Fatal(err)
		}
		a := cell.Area()
		if a <= 0 {
			t.Fatalf("cell %d has area %g", id, a)
		}
		total += a
	}
	if want := testBounds.Area(); math.Abs(total-want) > 1e-6*want {
		t.Fatalf("cells cover %g, bounds area %g", total, want)
	}
}

func TestINSContainsAllKNNNeighbors(t *testing.T) {
	ix, _ := buildRandom(t, 200, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := ix.KNN(q, 5)
		ins, err := ix.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		inKNN := make(map[int]bool)
		for _, id := range knn {
			inKNN[id] = true
		}
		insSet := make(map[int]bool)
		for _, id := range ins {
			if inKNN[id] {
				t.Fatalf("INS %v overlaps kNN %v", ins, knn)
			}
			insSet[id] = true
		}
		for _, id := range knn {
			nb, err := ix.Neighbors(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range nb {
				if !inKNN[u] && !insSet[u] {
					t.Fatalf("neighbor %d of kNN member %d missing from INS", u, id)
				}
			}
		}
	}
}

func TestOrderKCellContainsQuery(t *testing.T) {
	ix, _ := buildRandom(t, 250, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := ix.KNN(q, 4)
		ins, err := ix.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := ix.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.Contains(q) {
			t.Fatalf("order-k cell of kNN(%v) does not contain q", q)
		}
	}
}

// TestOrderKCellSafeRegion samples points inside and outside the order-k
// cell and checks the defining property: inside, the kNN set is unchanged;
// crossing outside changes it.
func TestOrderKCellSafeRegion(t *testing.T) {
	ix, _ := buildRandom(t, 250, 12)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := ix.KNN(q, 5)
		ins, err := ix.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := ix.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		if len(cell) < 3 {
			t.Fatalf("degenerate order-k cell for q=%v", q)
		}
		c := cell.Centroid()
		// Interior samples: convex combinations of the centroid and
		// vertices, pulled inward.
		for _, v := range cell {
			in := geom.Lerp(c, v, 0.9*rng.Float64())
			if !sameIDSet(ix.KNN(in, 5), knn) {
				if cell.Contains(in) {
					t.Fatalf("point %v inside cell has different kNN", in)
				}
			}
		}
		// Exterior samples: push past each edge midpoint.
		for j, v := range cell {
			w := cell[(j+1)%len(cell)]
			mid := geom.Mid(v, w)
			out := geom.Lerp(c, mid, 1.05)
			if !testBounds.Contains(out) || cell.Contains(out) {
				continue
			}
			if sameIDSet(bruteKNN(ix, out, 5), knn) {
				// Only a true violation if decisively outside (numerical
				// slack at the edge is fine).
				d2 := geom.Segment{A: v, B: w}.DistPoint(out)
				if d2 > 1e-6 {
					t.Fatalf("point %v outside cell keeps the same kNN", out)
				}
			}
		}
	}
}

// TestOrderKCellINSEqualsExact verifies the consequence of Theorem 1: the
// cell computed against the INS candidates equals the cell computed against
// every outside site.
func TestOrderKCellINSEqualsExact(t *testing.T) {
	ix, _ := buildRandom(t, 150, 14)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		for _, k := range []int{1, 3, 6} {
			knn := ix.KNN(q, k)
			ins, err := ix.INS(knn)
			if err != nil {
				t.Fatal(err)
			}
			viaINS, err := ix.OrderKCell(knn, ins)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := ix.OrderKCellExact(knn)
			if err != nil {
				t.Fatal(err)
			}
			ai, ae := viaINS.Area(), exact.Area()
			if math.Abs(ai-ae) > 1e-6*(ae+1e-9) {
				t.Fatalf("k=%d: INS cell area %g != exact cell area %g", k, ai, ae)
			}
		}
	}
}

// TestMISMinimality checks both directions of Definition 2 on random
// inputs: dropping a MIS member strictly grows the constrained cell
// (so every member is necessary), while dropping a non-member leaves it
// unchanged (so nothing else is needed).
func TestMISMinimality(t *testing.T) {
	ix, _ := buildRandom(t, 120, 16)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := ix.KNN(q, 3)
		ins, err := ix.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		mis, err := ix.MIS(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		if len(mis) == 0 {
			t.Fatalf("empty MIS for interior query %v", q)
		}
		insSet := make(map[int]bool)
		for _, id := range ins {
			insSet[id] = true
		}
		for _, id := range mis {
			if !insSet[id] {
				t.Fatalf("MIS member %d not in INS %v (violates Theorem 1)", id, ins)
			}
		}
		base, err := ix.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		baseArea := base.Area()
		without := func(xs []int, drop int) []int {
			out := make([]int, 0, len(xs)-1)
			for _, x := range xs {
				if x != drop {
					out = append(out, x)
				}
			}
			return out
		}
		for _, m := range mis {
			cell, err := ix.OrderKCell(knn, without(ins, m))
			if err != nil {
				t.Fatal(err)
			}
			if cell.Area() <= baseArea*(1+1e-9) {
				t.Fatalf("dropping MIS member %d did not grow the cell", m)
			}
		}
		for _, x := range ins {
			if slices.Contains(mis, x) {
				continue
			}
			cell, err := ix.OrderKCell(knn, without(ins, x))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cell.Area()-baseArea) > 1e-6*(baseArea+1e-9) {
				t.Fatalf("dropping non-MIS member %d changed the cell area (%g vs %g)",
					x, cell.Area(), baseArea)
			}
		}
	}
}

func TestOrderKCellErrors(t *testing.T) {
	ix, ids := buildRandom(t, 20, 20)
	if err := ix.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.OrderKCell([]int{ids[0]}, []int{ids[1]}); err == nil {
		t.Error("expected error for dead kNN member")
	}
	if _, err := ix.OrderKCell([]int{ids[1]}, []int{ids[0]}); err == nil {
		t.Error("expected error for dead candidate")
	}
}

func BenchmarkINS(b *testing.B) {
	ix, _ := buildRandom(b, 10000, 32)
	knn := ix.KNN(geom.Pt(500, 500), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.INS(knn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderKCell(b *testing.B) {
	ix, _ := buildRandom(b, 10000, 33)
	knn := ix.KNN(geom.Pt(500, 500), 8)
	ins, err := ix.INS(knn)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.OrderKCell(knn, ins); err != nil {
			b.Fatal(err)
		}
	}
}
