package vortree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestCellSwapsMatchMIS(t *testing.T) {
	ix, _ := buildRandom(t, 80, 40)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := ix.KNN(q, 3)
		ins, err := ix.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		swaps, err := ix.CellSwaps(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		mis, err := ix.MIS(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		ins2 := make(map[int]bool)
		for _, s := range swaps {
			if !slices.Contains(knn, s.Out) {
				t.Fatalf("swap out %d not a kNN member", s.Out)
			}
			if slices.Contains(knn, s.In) {
				t.Fatalf("swap in %d is a kNN member", s.In)
			}
			ins2[s.In] = true
		}
		// The In side of the swaps is exactly the MIS.
		if len(ins2) != len(mis) {
			t.Fatalf("swap-ins %v != MIS %v", ins2, mis)
		}
		for _, m := range mis {
			if !ins2[m] {
				t.Fatalf("MIS member %d missing from swaps", m)
			}
		}
	}
}

func TestEnumerateOrderKPartitionsBounds(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		ix, _ := buildRandom(t, 30, 50+int64(k))
		regions, err := ix.EnumerateOrderK(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(regions) == 0 {
			t.Fatalf("k=%d: no regions", k)
		}
		var total float64
		for _, r := range regions {
			if len(r.Sites) != k {
				t.Fatalf("region with %d sites, want %d", len(r.Sites), k)
			}
			a := r.Cell.Area()
			if a <= 0 {
				t.Fatalf("region %v has area %g", r.Sites, a)
			}
			total += a
		}
		if want := testBounds.Area(); math.Abs(total-want) > 1e-6*want {
			t.Fatalf("k=%d: regions cover %g of %g — not a partition", k, total, want)
		}
	}
}

func TestEnumerateOrderKSetsAreCorrect(t *testing.T) {
	ix, _ := buildRandom(t, 40, 60)
	regions, err := ix.EnumerateOrderK(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		// The kNN set at the centroid of each region must equal the
		// region's site set (centroids of convex cells are interior).
		c := r.Cell.Centroid()
		if !r.Cell.Contains(c) {
			continue // degenerate sliver: skip the check
		}
		got := ix.KNN(c, 2)
		sort.Ints(got)
		if !slices.Equal(got, r.Sites) {
			t.Fatalf("region %v: centroid kNN is %v", r.Sites, got)
		}
	}
}

func TestEnumerateOrderKDistinctSets(t *testing.T) {
	ix, _ := buildRandom(t, 25, 70)
	regions, err := ix.EnumerateOrderK(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range regions {
		key := setKey(r.Sites)
		if seen[key] {
			t.Fatalf("duplicate region for set %v", r.Sites)
		}
		seen[key] = true
	}
}

func TestEnumerateOrderKCountGrowsWithK(t *testing.T) {
	ix, _ := buildRandom(t, 50, 80)
	prev := 0
	for _, k := range []int{1, 2, 4} {
		regions, err := ix.EnumerateOrderK(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(regions) <= prev {
			t.Fatalf("k=%d produced %d cells, not more than %d — expected growth", k, len(regions), prev)
		}
		prev = len(regions)
	}
}

func TestEnumerateOrderKErrors(t *testing.T) {
	ix, _ := buildRandom(t, 5, 90)
	if _, err := ix.EnumerateOrderK(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ix.EnumerateOrderK(6); err == nil {
		t.Error("k>n accepted")
	}
}
