package delaunay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestNearestMatchesBruteForce(t *testing.T) {
	tr := New(testBounds)
	pts := randomPoints(200, 31)
	ids, err := tr.InsertAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 300; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got, _, _ := tr.NearestFrom(q, -1, 0, new(RingScratch))
		best, bestD := -1, math.Inf(1)
		for _, id := range ids {
			if d := q.Dist2(tr.Point(id)); d < bestD {
				best, bestD = id, d
			}
		}
		if got != best && q.Dist2(tr.Point(got)) != bestD {
			t.Fatalf("Nearest(%v) = %d at %g, want %d at %g",
				q, got, q.Dist2(tr.Point(got)), best, bestD)
		}
	}
}

func TestNearestAfterRemovals(t *testing.T) {
	tr := New(testBounds)
	ids, err := tr.InsertAll(randomPoints(100, 33))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	live := append([]int(nil), ids...)
	for step := 0; step < 80; step++ {
		i := rng.Intn(len(live))
		if err := tr.Remove(live[i]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got, _, _ := tr.NearestFrom(q, -1, 0, new(RingScratch))
		bestD := math.Inf(1)
		for _, id := range live {
			if d := q.Dist2(tr.Point(id)); d < bestD {
				bestD = d
			}
		}
		if q.Dist2(tr.Point(got)) != bestD {
			t.Fatalf("step %d: Nearest wrong after removal", step)
		}
	}
}

func TestNearestEmpty(t *testing.T) {
	tr := New(testBounds)
	if got, _, _ := tr.NearestFrom(geom.Pt(1, 1), -1, 0, new(RingScratch)); got != -1 {
		t.Errorf("Nearest on empty = %d, want -1", got)
	}
}

func TestNearestOutOfBoundsQuery(t *testing.T) {
	tr := New(testBounds)
	ids, err := tr.InsertAll(randomPoints(50, 35))
	if err != nil {
		t.Fatal(err)
	}
	// Queries outside the insertion bounds must still resolve (greedy
	// descent works from any seed).
	q := geom.Pt(-500, 2000)
	got, _, _ := tr.NearestFrom(q, -1, 0, new(RingScratch))
	bestD := math.Inf(1)
	best := -1
	for _, id := range ids {
		if d := q.Dist2(tr.Point(id)); d < bestD {
			best, bestD = id, d
		}
	}
	if got != best {
		t.Fatalf("out-of-bounds Nearest = %d, want %d", got, best)
	}
}

// TestNearestProperty drives Nearest with quick-generated queries.
func TestNearestProperty(t *testing.T) {
	tr := New(testBounds)
	ids, err := tr.InsertAll(randomPoints(60, 36))
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(xr, yr float64) bool {
		x := math.Mod(math.Abs(xr), 1000)
		y := math.Mod(math.Abs(yr), 1000)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		q := geom.Pt(x, y)
		got, _, _ := tr.NearestFrom(q, -1, 0, new(RingScratch))
		gd := q.Dist2(tr.Point(got))
		for _, id := range ids {
			if q.Dist2(tr.Point(id)) < gd {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
