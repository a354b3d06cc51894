package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// checkGrid asserts the entry grid's invariant: it is sized for the
// vertices it has held, every cell holds a live vertex, and the cells
// holding a vertex form a 4-connected region containing its own cell.
func checkGrid(t *testing.T, tr *Triangulation) {
	t.Helper()
	if tr.grid.len() != tr.cells() {
		t.Fatalf("grid has %d cells, %d wanted for %d bits", tr.grid.len(), tr.cells(), tr.gbits)
	}
	if tr.nLive == 0 {
		return
	}
	if tr.gbits < maxGridBits && tr.nLive > 4*tr.cells() {
		t.Fatalf("%d vertices in a grid of %d cells", tr.nLive, tr.cells())
	}
	regions := make(map[int32]int)
	for c := range tr.cells() {
		v := tr.entry(c)
		if v < 3 || int(v) >= len(tr.pts) || tr.vfaceAt(v) == noTri {
			t.Fatalf("cell %d holds %d, not a live vertex", c, v)
		}
		regions[v]++
	}
	for v, size := range regions {
		own := tr.cellOf(tr.pts[v])
		if tr.entry(own) != v {
			t.Fatalf("vertex %d holds %d cells but not its own, %d", v, size, own)
		}
		seen := map[int]bool{own: true}
		for queue := []int{own}; len(queue) > 0; queue = queue[1:] {
			for _, n := range tr.around(queue[0]) {
				if n >= 0 && !seen[n] && tr.entry(n) == v {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
		if len(seen) != size {
			t.Fatalf("vertex %d holds %d cells, %d of them connected to its own", v, size, len(seen))
		}
	}
}

// bruteNearest returns the least squared distance from q to a live vertex.
func bruteNearest(tr *Triangulation, q geom.Point) float64 {
	best := math.Inf(1)
	for _, id := range tr.VertexIDs() {
		best = min(best, q.Dist2(tr.Point(id)))
	}
	return best
}

// coldQueries are the query points of TestColdNearestMatchesBruteForce:
// uniform over the bounds and well past them, and on data points.
func coldQueries(rng *rand.Rand, pts []geom.Point) []geom.Point {
	qs := make([]geom.Point, 0, 300)
	for len(qs) < cap(qs) {
		switch i := len(qs); {
		case i%3 == 1:
			qs = append(qs, geom.Pt(rng.Float64()*3000-1000, rng.Float64()*3000-1000))
		case i%3 == 2 && len(pts) > 0:
			qs = append(qs, pts[rng.Intn(len(pts))])
		default:
			qs = append(qs, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
		}
	}
	return qs
}

// coldCost checks a cold Nearest from each query against brute force and
// returns the mean cost: cells read plus distances evaluated.
func coldCost(t *testing.T, tr *Triangulation, qs []geom.Point) float64 {
	t.Helper()
	var sc RingScratch
	total := 0
	for _, q := range qs {
		id, cells, dists := tr.NearestFrom(q, -1, 0, &sc)
		if tr.Len() == 0 {
			if id != -1 || cells+dists != 0 {
				t.Fatalf("empty: Nearest(%v) = %d at cost %d + %d", q, id, cells, dists)
			}
			continue
		}
		if d, want := q.Dist2(tr.Point(id)), bruteNearest(tr, q); !tr.Contains(id) || d != want {
			t.Fatalf("Nearest(%v) = %d at d2 %g, brute force has d2 %g", q, id, d, want)
		}
		if cells != 1 {
			t.Fatalf("Nearest(%v) read %d grid cells", q, cells)
		}
		total += cells + dists
	}
	return float64(total) / float64(len(qs))
}

// TestColdNearestMatchesBruteForce: a cold Nearest — grid cell, then the
// walk — finds the nearest vertex on general and degenerate inputs, from
// queries inside the bounds, far outside them and on data points. Each
// input is checked built in bulk; after churn through Branch, while a frozen
// version is read concurrently (run under -race); and grown from empty one
// Insert at a time. After the churn, which moves the grid's entries by
// Insert and Remove only, a cold start costs at most twice what it does on
// a fresh build of the same vertices.
func TestColdNearestMatchesBruteForce(t *testing.T) {
	churn := 100000
	if testing.Short() {
		churn = 10000
	}
	var clusters []geom.Point
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 1500; i++ {
		c := geom.Pt(150, 200)
		if i%3 == 1 {
			c = geom.Pt(850, 700)
		}
		p := geom.Pt(c.X+rng.NormFloat64()*40, c.Y+rng.NormFloat64()*40)
		if testBounds.Contains(p) {
			clusters = append(clusters, p)
		}
	}
	inputs := duplicatePools()
	inputs["uniform"] = randomPoints(3000, 81)
	inputs["clustered"] = clusters
	inputs["duplicates"] = append(randomPoints(500, 82), randomPoints(200, 82)...)
	inputs["one_object"] = []geom.Point{geom.Pt(1000, 0)}
	inputs["empty"] = nil
	for name, pts := range inputs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			qs := coldQueries(rng, pts)

			bulk := New(testBounds)
			if _, err := bulk.InsertAll(pts); err != nil {
				t.Fatal(err)
			}
			checkGrid(t, bulk)
			coldCost(t, bulk, qs)

			grown := New(testBounds)
			for _, p := range pts {
				if _, err := grown.Insert(p); err != nil && !errors.Is(err, ErrDuplicate) {
					t.Fatal(err)
				}
			}
			checkGrid(t, grown)
			coldCost(t, grown, qs)

			// Churn: a remove, or an insert of a point drawn from or near the
			// input, keeping the size; a new version every 64 steps, the
			// first one read by two goroutines all the while.
			head := bulk
			frozen := head
			head = head.Branch()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			read := func(tr *Triangulation, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var sc RingScratch
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
					if id, _, _ := tr.NearestFrom(q, -1, 0, &sc); id >= 0 && !tr.Contains(id) {
						t.Errorf("frozen version: Nearest(%v) = %d, not live", q, id)
						return
					}
				}
			}
			wg.Add(2)
			go read(frozen, 1)
			go read(frozen, 2)
			live := head.VertexIDs()
			size := len(live)
			for step := 0; step < churn && size > 0; step++ {
				if step%64 == 63 {
					head = head.Branch()
				}
				if len(live) >= size && len(live) > 1 {
					i := rng.Intn(len(live))
					if err := head.Remove(live[i]); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				// Half the inserts repeat an input point exactly, so the
				// degenerate inputs stay degenerate.
				p := pts[rng.Intn(len(pts))]
				if step%4 == 0 {
					p = geom.Pt(p.X+rng.NormFloat64()*5, p.Y+rng.NormFloat64()*5)
				}
				if !testBounds.Contains(p) {
					continue
				}
				id, err := head.Insert(p)
				if err == nil {
					live = append(live, id)
				} else if !errors.Is(err, ErrDuplicate) {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			checkGrid(t, head)
			churned := coldCost(t, head, qs)

			fresh := New(testBounds)
			var livePts []geom.Point
			for _, id := range head.VertexIDs() {
				livePts = append(livePts, head.Point(id))
			}
			if _, err := fresh.InsertAll(livePts); err != nil {
				t.Fatal(err)
			}
			built := coldCost(t, fresh, qs)
			t.Logf("%d objects after %d mutations: mean cold cost %.1f, %.1f on a fresh build", head.Len(), churn, churned, built)
			if churned > 2*built {
				t.Errorf("mean cold cost %.1f after churn, %.1f on a fresh build of the same vertices", churned, built)
			}
		})
	}
}

// TestGridSizeFollowsGrowth: an index grown from empty regrows its grid as
// it passes four vertices per cell, so its cells stay within a factor of
// four of a built index's; the pages a version shares or copies are
// counted.
func TestGridSizeFollowsGrowth(t *testing.T) {
	tr := New(testBounds)
	for i, p := range randomPoints(20000, 84) {
		if _, err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		if built := 1 << (2 * gridBits(i+1)); tr.cells() > built || 4*tr.cells() < built {
			t.Fatalf("%d vertices in %d cells, a build has %d", i+1, tr.cells(), built)
		}
	}
	checkGrid(t, tr)
	if copied, total := tr.ShareStats(); copied != total {
		t.Fatalf("a version never branched copied %d of its %d pages", copied, total)
	}
	next := tr.Branch()
	if copied, _ := next.ShareStats(); copied != 0 {
		t.Fatalf("a fresh branch copied %d pages", copied)
	}
	if _, err := next.Insert(geom.Pt(500.5, 500.5)); err != nil {
		t.Fatal(err)
	}
	if copied, total := next.ShareStats(); copied == 0 || 10*copied > total {
		t.Fatalf("one insert after a branch copied %d of %d pages", copied, total)
	}
}
