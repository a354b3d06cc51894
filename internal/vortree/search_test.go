package vortree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// checkPrefetch verifies one AppendPrefetch result against the oracles: R
// (ids[:nR]) has the brute-force kNN's sorted distance list — so ties
// between equidistant objects pass whichever of them was taken — I(R)
// (ids[nR:]) is the reference construction ix.INS of that same R as a set,
// and ds holds each object's q.Dist2(ix.Point(id)), bit for bit.
func checkPrefetch(t *testing.T, ix *Index, q geom.Point, m int, ids []int, ds []float64, nR int) {
	t.Helper()
	checkPrefetchAgainst(t, ix, q, m, ids, ds, nR, bruteKNN(ix, q, m))
}

// checkPrefetchAgainst is checkPrefetch with the brute-force kNN supplied,
// for callers checking several searches of the same (q, m).
func checkPrefetchAgainst(t *testing.T, ix *Index, q geom.Point, m int, ids []int, ds []float64, nR int, want []int) {
	t.Helper()
	if nR != len(want) {
		t.Fatalf("q=%v m=%d: |R| = %d, want %d", q, m, nR, len(want))
	}
	if len(ds) != len(ids) {
		t.Fatalf("q=%v m=%d: %d distances for %d objects", q, m, len(ds), len(ids))
	}
	for i, id := range ids {
		if w := q.Dist2(ix.Point(id)); math.Float64bits(ds[i]) != math.Float64bits(w) {
			t.Fatalf("q=%v m=%d: object %d (position %d) at distance %v, q.Dist2 says %v", q, m, id, i, ds[i], w)
		}
	}
	r := ids[:nR]
	for i, id := range r {
		if got, w := q.Dist2(ix.Point(id)), q.Dist2(ix.Point(want[i])); got != w {
			t.Fatalf("q=%v m=%d: R[%d] = %d at d2 %g, brute force has d2 %g\nR     %v\nbrute %v", q, m, i, id, got, w, r, want)
		}
	}
	wantINS, err := ix.INS(r)
	if err != nil {
		t.Fatalf("q=%v m=%d: oracle INS(%v): %v", q, m, r, err)
	}
	if ins := slices.Sorted(slices.Values(ids[nR:])); !slices.Equal(ins, wantINS) {
		t.Fatalf("q=%v m=%d: I(R) = %v, want %v (R %v)", q, m, ins, wantINS, r)
	}
}

// farthestObject returns the live object farthest from q.
func farthestObject(ix *Index, q geom.Point) int {
	far, best := -1, -1.0
	for _, id := range ix.IDs() {
		if d := q.Dist2(ix.Point(id)); d > best {
			far, best = id, d
		}
	}
	return far
}

// TestFusedPrefetchMatchesOracle is the differential test of the one-pass
// recompute: on uniform, fully degenerate and edge-hugging data, for a
// random walk of queries and every kind of hint a session can hold, the
// fused R + I(R) equals the brute-force kNN and the reference INS. One
// scratch serves every search, across index versions, as a shard's does.
func TestFusedPrefetchMatchesOracle(t *testing.T) {
	lattice := make([]geom.Point, 0, 64*64)
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	// Duplicates collapse onto one object; the rest sit on the bounds edge
	// and corners around a sparse interior.
	edgy := randomPoints(300, 41)
	edgy = append(edgy, edgy[:50]...)
	for i := 0; i <= 20; i++ {
		c := float64(i) * 50
		edgy = append(edgy, geom.Pt(0, c), geom.Pt(1000, c), geom.Pt(c, 0), geom.Pt(c, 1000))
	}
	cases := []struct {
		name    string
		bounds  geom.Rect
		pts     []geom.Point
		step    float64 // query walk step, below the object spacing
		queries int
	}{
		{"uniform20k", testBounds, randomPoints(20000, 40), 5, 100},
		{"lattice64", geom.NewRect(geom.Pt(0, 0), geom.Pt(63, 63)), lattice, 0.5, 300},
		{"duplicates+edges", testBounds, edgy, 20, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, _, err := Build(tc.bounds, 16, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			// Burn some ids so "removed" hints exist.
			var removed []int
			for i := 0; i < 20; i++ {
				id := rng.Intn(ix.NextID())
				if ix.Contains(id) && ix.Remove(id) == nil {
					removed = append(removed, id)
				}
			}
			w, h := tc.bounds.Width(), tc.bounds.Height()
			var sc SearchScratch
			var buf []int
			var dbuf []float64
			q := tc.bounds.Center()
			prev := NoHint
			for i := 0; i < tc.queries; i++ {
				// A walk of small steps, so the previous nearest object is a
				// near hint; every tenth query lands on a data point or a
				// half-integer point to force exact ties on the lattice, or
				// just outside the bounds.
				switch {
				case i%10 == 3:
					q = ix.Point(farthestObject(ix, geom.Pt(rng.Float64()*w, rng.Float64()*h)))
				case i%10 == 6:
					q = geom.Pt(math.Floor(rng.Float64()*w)+0.5, math.Floor(rng.Float64()*h)+0.5)
				case i%10 == 9:
					q = geom.Pt(-0.01*w, rng.Float64()*h)
				default:
					q = geom.Pt(q.X+(rng.Float64()*2-1)*tc.step, q.Y+(rng.Float64()*2-1)*tc.step)
				}
				m := 1 + rng.Intn(24)
				if i%50 == 0 {
					m = ix.Len() + 3 // the whole index: I(R) is empty
				}
				hints := []struct {
					name string
					id   int
					dead bool // not live: must start from the grid
				}{
					{"none", NoHint, true},
					{"previous R[0]", prev, prev == NoHint},
					{"far object", farthestObject(ix, q), false},
					{"removed object", removed[rng.Intn(len(removed))], true},
					{"id >= NextID", ix.NextID() + rng.Intn(5), true},
				}
				want := bruteKNN(ix, q, m)
				for _, hint := range hints {
					ids, ds, nR, cost := ix.AppendPrefetch(q, m, hint.id, false, buf[:0], dbuf[:0], &sc)
					buf, dbuf = ids, ds
					checkPrefetchAgainst(t, ix, q, m, ids, ds, nR, want)
					if hint.dead && cost.NodeVisits != 1 {
						t.Fatalf("hint %q: cost %+v, want one grid cell read", hint.name, cost)
					}
					if cost.NodeVisits > 1 || cost.SeedDists == 0 {
						t.Fatalf("hint %q: cost %+v, want at most one grid cell and a walk", hint.name, cost)
					}
				}
				prev = buf[0]

				// A hint carried across a data update: the next version
				// inserts objects around q and removes the hint itself half
				// of the time.
				if i%5 == 0 {
					next := ix.Branch()
					for j := 0; j < 3; j++ {
						p := geom.Pt(q.X+rng.Float64()*tc.step, q.Y+rng.Float64()*tc.step)
						if tc.bounds.Contains(p) {
							if _, err := next.Insert(p); err != nil {
								t.Fatal(err)
							}
						}
					}
					if i%10 == 0 {
						if err := next.Remove(prev); err != nil {
							t.Fatal(err)
						}
						removed = append(removed, prev)
					}
					ids, ds, nR, _ := next.AppendPrefetch(q, m, prev, false, buf[:0], dbuf[:0], &sc)
					buf, dbuf = ids, ds
					checkPrefetch(t, next, q, m, ids, ds, nR)
					ix, prev = next, buf[0]
				}
			}
		})
	}
}

// TestHintWalkCost pins down what the hint buys and what bounds it: a near
// hint finds the nearest object without reading the grid, a hint across the
// data space is abandoned after the hop budget for the cold start, which
// reads one grid cell and walks a few steps from its entry.
func TestHintWalkCost(t *testing.T) {
	ix, _, err := Build(testBounds, 16, randomPoints(20000, 7))
	if err != nil {
		t.Fatal(err)
	}
	var sc SearchScratch
	q := geom.Pt(500, 500)
	ids, _, _, cold := ix.AppendPrefetch(q, 12, NoHint, false, nil, nil, &sc)
	if cold.NodeVisits != 1 || cold.SeedDists == 0 || cold.SeedDists > 40 {
		t.Fatalf("no hint: cost %+v, want one grid cell and a short walk", cold)
	}
	if _, visits := ix.AppendKNN(q, 12, ids[:0], &sc); visits != cold.NodeVisits+cold.SeedDists {
		t.Fatalf("AppendKNN reports a cold start costing %d, AppendPrefetch %+v", visits, cold)
	}
	_, _, _, cost := ix.AppendPrefetch(geom.Pt(503, 498), 12, ids[0], false, ids[:0], nil, &sc)
	if cost.NodeVisits != 0 || cost.SeedDists == 0 {
		t.Fatalf("near hint: cost %+v, want a walk and no grid cell", cost)
	}
	_, _, _, cost = ix.AppendPrefetch(q, 12, farthestObject(ix, q), false, ids[:0], nil, &sc)
	if cost.NodeVisits != 1 || cost.SeedDists <= cold.SeedDists {
		t.Fatalf("far hint: cost %+v, want an abandoned walk then the cold start (%+v)", cost, cold)
	}
	if maxDists := (maxSeedHops+1)*20 + cold.SeedDists; cost.SeedDists > maxDists {
		t.Fatalf("far hint: walks evaluated %d distances, budget allows about %d", cost.SeedDists, maxDists)
	}
}

// TestPrefetchNearestHintMatchesWalk: a search told that its hint is the
// nearest object starts the expansion there and returns what the walk from
// that hint returns — the same R, I(R) in the same order, the same
// distances — at no seed cost, on uniform, integer-lattice and cocircular
// data and on a branch with inserts and removes. Told so of a removed hint,
// it reads the entry grid as if it had no hint.
func TestPrefetchNearestHintMatchesWalk(t *testing.T) {
	var lattice []geom.Point
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			lattice = append(lattice, geom.Pt(float64(x)*25, float64(y)*25))
		}
	}
	// 36 objects on a circle around an empty disc: at its centre all are
	// equidistant.
	c := geom.Pt(500, 500)
	var ring []geom.Point
	for _, p := range randomPoints(1500, 51) {
		if p.Dist2(c) > 80*80 {
			ring = append(ring, p)
		}
	}
	for i := 0; i < 36; i++ {
		a := 2 * math.Pi * float64(i) / 36
		ring = append(ring, geom.Pt(c.X+50*math.Cos(a), c.Y+50*math.Sin(a)))
	}
	for _, tc := range []struct {
		name string
		pts  []geom.Point
	}{{"uniform", randomPoints(5000, 50)}, {"integer lattice", lattice}, {"cocircular", ring}} {
		t.Run(tc.name, func(t *testing.T) {
			ix, _, err := Build(testBounds, 16, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(52))
			var sc SearchScratch
			var removed []int
			for i := 0; i < 200; i++ {
				q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				switch i % 4 {
				case 1: // on a lattice point, or midway between two
					q = geom.Pt(math.Round(q.X/25)*25, math.Round(q.Y/25)*25+12.5*float64(rng.Intn(2)))
				case 2:
					q = c
				}
				m := 1 + rng.Intn(20)
				nearest := bruteKNN(ix, q, 1)[0]
				walked, wd, wn, wcost := ix.AppendPrefetch(q, m, nearest, false, nil, nil, &sc)
				ids, ds, nR, cost := ix.AppendPrefetch(q, m, nearest, true, nil, nil, &sc)
				if !slices.Equal(ids, walked) || !slices.Equal(ds, wd) || nR != wn {
					t.Fatalf("q=%v m=%d: from the proven nearest %d\n%v (nR %d)\nwalked\n%v (nR %d)", q, m, nearest, ids, nR, walked, wn)
				}
				checkPrefetch(t, ix, q, m, ids, ds, nR)
				if cost != (SearchCost{}) || wcost.NodeVisits != 0 || wcost.SeedDists == 0 {
					t.Fatalf("q=%v: proven start cost %+v, walk from it %+v; want none, and a walk with no grid cell", q, cost, wcost)
				}
				if len(removed) > 0 {
					dead := removed[rng.Intn(len(removed))]
					ids, ds, nR, cost := ix.AppendPrefetch(q, m, dead, true, nil, nil, &sc)
					checkPrefetch(t, ix, q, m, ids, ds, nR)
					if cost.NodeVisits != 1 {
						t.Fatalf("q=%v: removed hint %d told nearest: cost %+v, want one grid cell", q, dead, cost)
					}
				}
				// Every tenth query moves on to a branch that inserts beside
				// q and removes its nearest object half of the time.
				if i%10 == 9 {
					next := ix.Branch()
					for j := 0; j < 3; j++ {
						if p := geom.Pt(q.X+rng.Float64()*10, q.Y+rng.Float64()*10); testBounds.Contains(p) {
							if _, err := next.Insert(p); err != nil {
								t.Fatal(err)
							}
						}
					}
					if i%20 == 9 {
						if err := next.Remove(nearest); err != nil {
							t.Fatal(err)
						}
						removed = append(removed, nearest)
					}
					ix = next
				}
			}
		})
	}
}

// TestFusedVisitedEpochWrap: the visited stamps survive the epoch counter
// wrapping around.
func TestFusedVisitedEpochWrap(t *testing.T) {
	ix, _, err := Build(testBounds, 16, randomPoints(2000, 8))
	if err != nil {
		t.Fatal(err)
	}
	var sc SearchScratch
	q := geom.Pt(400, 600)
	ix.AppendPrefetch(q, 10, NoHint, false, nil, nil, &sc)
	sc.epoch = math.MaxUint32 - 2
	for i := 0; i < 6; i++ {
		ids, ds, nR, _ := ix.AppendPrefetch(q, 10, NoHint, false, nil, nil, &sc)
		checkPrefetch(t, ix, q, 10, ids, ds, nR)
	}
	if sc.epoch == 0 || sc.epoch > 6 {
		t.Fatalf("epoch = %d after wrapping, want a small non-zero value", sc.epoch)
	}
}

// BenchmarkRecompute is the vortree row of the per-layer ledger without the
// harness: one R + I(R) recomputation for a query that moved about one
// object spacing since its last result, started cold from the entry grid,
// from the previous nearest object, and from the nearest object itself
// with the caller's proof that it is (a plane validation's).
func BenchmarkRecompute(b *testing.B) {
	const n, m = 100000, 12 // ⌊1.6·8⌋
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))
	rng := rand.New(rand.NewSource(10))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	ix, _, err := Build(bounds, 16, pts)
	if err != nil {
		b.Fatal(err)
	}
	// 64 walks of 64 steps: neighbouring queries are near each other, walks
	// are not.
	qs := make([]geom.Point, 0, 4096)
	for len(qs) < cap(qs) {
		p := geom.Pt(1000+rng.Float64()*8000, 1000+rng.Float64()*8000)
		for j := 0; j < 64; j++ {
			p = geom.Pt(p.X+(rng.Float64()*2-1)*30, p.Y+(rng.Float64()*2-1)*30)
			qs = append(qs, p)
		}
	}
	nearest := make([]int, len(qs))
	for i, q := range qs {
		nearest[i] = ix.KNN(q, 1)[0]
	}
	for _, bc := range []struct {
		name           string
		hinted, proven bool
	}{{"cold_seed", false, false}, {"hint_seed", true, false}, {"nearest_seed", false, true}} {
		b.Run(bc.name, func(b *testing.B) {
			var sc SearchScratch
			var buf []int
			var dbuf []float64
			hint := NoHint
			visits, dists := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.proven {
					hint = nearest[i%len(qs)]
				}
				ids, ds, _, cost := ix.AppendPrefetch(qs[i%len(qs)], m, hint, bc.proven, buf[:0], dbuf[:0], &sc)
				buf, dbuf = ids, ds
				if bc.hinted {
					hint = ids[0]
				}
				visits += cost.NodeVisits
				dists += cost.SeedDists
			}
			b.ReportMetric(float64(visits)/float64(b.N), "cells/op")
			b.ReportMetric(float64(dists)/float64(b.N), "seeddists/op")
		})
	}
}
