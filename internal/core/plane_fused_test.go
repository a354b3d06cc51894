package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/trajectory"
	"repro/internal/vortree"
)

// TestFusedUpdateKeepsKNNPrefixOfR is the property test of the one-pass
// Update: along random walks — small steps, strides and teleports — with
// object inserts and removals, each repaired by Refresh, and invalidations
// and eager refreshes mixed in,
// after every step the kNN set is the first k members of R, the guard set
// is the rest of R plus I(R), and the answer equals brute force whichever
// of validate / re-rank / recompute produced it.
func TestFusedUpdateKeepsKNNPrefixOfR(t *testing.T) {
	for _, tc := range []struct {
		k   int
		rho float64
	}{{1, 1}, {1, 1.6}, {3, 1.6}, {8, 1.6}, {8, 1}, {5, 2.5}} {
		st, err := index.NewStore(index.Config{Bounds: testBounds, Objects: randomPoints(1500, int64(100+tc.k))})
		if err != nil {
			t.Fatal(err)
		}
		q, err := newPlaneOnStore(st, tc.k, tc.rho)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.k)*31 + int64(tc.rho*10)))
		check := func(what string, pos geom.Point, knn []int) {
			t.Helper()
			cur, r := q.Current(), q.Prefetched()
			if len(r) < tc.k || !slices.Equal(cur, r[:tc.k]) {
				t.Fatalf("k=%d rho=%g %s: Current() = %v is not Prefetched()[:k] of %v", tc.k, tc.rho, what, cur, r)
			}
			if knn != nil && !slices.Equal(knn, cur) {
				t.Fatalf("k=%d rho=%g %s: returned %v, Current() = %v", tc.k, tc.rho, what, knn, cur)
			}
			if want := append(r[tc.k:], q.INS()...); !slices.Equal(q.InfluenceSet(), want) {
				t.Fatalf("k=%d rho=%g %s: InfluenceSet() = %v, want R[k:] + I(R) = %v", tc.k, tc.rho, what, q.InfluenceSet(), want)
			}
			checkKNNAgainstBrute(t, st.Current().Plane(), pos, cur, tc.k)
		}
		refresh := func() {
			t.Helper()
			if _, _, err := q.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		pos := geom.Pt(500, 500)
		outcomes := map[string]int{}
		for step := 0; step < 1500; step++ {
			stride := []float64{0.5, 4, 25, 120}[rng.Intn(4)]
			pos = geom.Pt(pos.X+(rng.Float64()*2-1)*stride, pos.Y+(rng.Float64()*2-1)*stride)
			if step%97 == 0 {
				pos = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			pos = geom.Pt(math.Min(math.Max(pos.X, 0), 1000), math.Min(math.Max(pos.Y, 0), 1000))

			outcome, knn := classifyUpdate(t, q.PlaneQuery, pos)
			outcomes[outcome]++
			check(outcome, pos, knn)

			switch step % 7 {
			case 1: // insert beside the query: lands inside R
				if _, err := st.Insert(geom.Pt(pos.X+rng.Float64(), pos.Y+rng.Float64())); err != nil && pos.X < 999 && pos.Y < 999 {
					t.Fatal(err)
				}
				refresh()
				check("after near insert", pos, nil)
			case 3: // insert anywhere
				if _, err := st.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil {
					t.Fatal(err)
				}
				refresh()
				check("after far insert", pos, nil)
			case 4: // remove a member of the state (often the hint itself)
				state := append(q.Prefetched(), q.INS()...)
				if err := st.Remove(state[rng.Intn(len(state))]); err != nil {
					t.Fatal(err)
				}
				refresh()
				check("after state removal", pos, nil)
			case 5: // a data update applied outside the query, repaired eagerly
				q.Invalidate()
				if got := q.Current(); len(got) != 0 {
					t.Fatalf("Current() = %v after Invalidate", got)
				}
				knn, recomputed, err := q.Refresh()
				if err != nil || !recomputed {
					t.Fatalf("Refresh = (%v, %v), want a recomputation", recomputed, err)
				}
				check("after refresh", pos, knn)
			}
		}
		for _, o := range []string{"validate", "rerank", "recompute"} {
			if outcomes[o] == 0 && !(o == "rerank" && int(tc.rho*float64(tc.k)) == tc.k) { // R == kNN: nothing to re-rank
				t.Errorf("k=%d rho=%g: walk never produced a %s (%v)", tc.k, tc.rho, o, outcomes)
			}
		}
	}
}

// classifyUpdate runs one Update and names the outcome by the counters it
// moved.
func classifyUpdate(tb testing.TB, q *PlaneQuery, p geom.Point) (string, []int) {
	tb.Helper()
	before := *q.Metrics()
	knn, err := q.Update(p)
	if err != nil {
		tb.Fatal(err)
	}
	switch after := q.Metrics(); {
	case after.Recomputations > before.Recomputations:
		return "recompute", knn
	case after.Invalidations > before.Invalidations:
		return "rerank", knn
	}
	return "validate", knn
}

// outcomeLoop returns a query over ix and two positions between which it
// can alternate forever with every Update taking the named outcome:
// validate (the kNN set holds at both), rerank (R holds at both, its first
// k members do not) or recompute (R does not survive the move; the hint is
// a guard object a hop or two from the new nearest). It finds them by
// trying moves of growing length around random positions.
func outcomeLoop(tb testing.TB, ix *vortree.Index, outcome string, seed int64) (*PlaneQuery, [2]geom.Point) {
	tb.Helper()
	const k, rho = 8, 1.6
	rng := rand.New(rand.NewSource(seed))
	// Object spacing of a uniform set: moves are tried in fractions of it.
	b := ix.Bounds()
	spacing := math.Sqrt(b.Width() * b.Height() / float64(ix.Len()))
	for trial := 0; trial < 200; trial++ {
		a := geom.Pt(b.Min.X+(0.2+0.6*rng.Float64())*b.Width(), b.Min.Y+(0.2+0.6*rng.Float64())*b.Height())
		for _, f := range []float64{0.001, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2, 3} {
			angle := rng.Float64() * 2 * math.Pi
			pts := [2]geom.Point{a, geom.Pt(a.X+f*spacing*math.Cos(angle), a.Y+f*spacing*math.Sin(angle))}
			q, err := NewPlaneQuery(ix, k, rho)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := q.Update(pts[0]); err != nil {
				tb.Fatal(err)
			}
			ok := true
			for i := 1; i <= 6 && ok; i++ {
				got, _ := classifyUpdate(tb, q, pts[i&1])
				ok = got == outcome
			}
			if ok {
				return q, pts
			}
		}
	}
	tb.Fatalf("no pair of positions alternates with outcome %q", outcome)
	return nil, [2]geom.Point{}
}

// TestHintedUpdateAllocatesNothing: in steady state an Update allocates
// nothing in any of its three outcomes — the distances go into the
// session's buffer, the re-rank sorts R in place, and a recomputation
// appends R and I(R) onto the session's id list through the scratch.
func TestHintedUpdateAllocatesNothing(t *testing.T) {
	ix := buildIndex(t, 20000, 77)
	for _, outcome := range []string{"validate", "rerank", "recompute"} {
		q, pts := outcomeLoop(t, ix, outcome, 5)
		before := *q.Metrics()
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			i++
			if _, err := q.Update(pts[i&1]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per Update, want 0", outcome, allocs)
		}
		after := q.Metrics()
		if took, n := outcomeCount(before, *after, outcome), after.Timestamps-before.Timestamps; took != n {
			t.Errorf("%s: only %d of %d measured updates took that outcome", outcome, took, n)
		}
		if outcome == "recompute" && after.NodeVisits != before.NodeVisits {
			t.Errorf("recompute: %d grid cells read after first placement, want 0 (hint-seeded)", after.NodeVisits-before.NodeVisits)
		}
	}
}

// TestVisitedSetGrowthThenUpdateAllocatesNothing: the scratch a shard shares
// among its sessions has just served a search fifty times as wide as this
// session's, which doubled its visited table several times; the session's
// next recomputations through it allocate nothing.
func TestVisitedSetGrowthThenUpdateAllocatesNothing(t *testing.T) {
	ix := buildIndex(t, 20000, 77)
	q, pts := outcomeLoop(t, ix, "recompute", 5)
	sc := new(vortree.SearchScratch)
	q.UseScratch(sc)
	if ids, _, _, _ := ix.AppendPrefetch(pts[0], 600, vortree.NoHint, false, nil, nil, sc); len(ids) < 600 {
		t.Fatalf("wide search returned %d objects", len(ids))
	}
	before := q.Metrics().Recomputations
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		i++
		if _, err := q.Update(pts[i&1]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%.1f allocs per recomputing Update after the scratch grew, want 0", allocs)
	}
	if got := q.Metrics().Recomputations - before; got != 201 {
		t.Errorf("%d of 201 measured updates recomputed", got)
	}
}

// outcomeCount returns how many of the updates between two counter
// readings took the named outcome.
func outcomeCount(before, after metrics.Counters, outcome string) int {
	recomputes := after.Recomputations - before.Recomputations
	invalid := after.Invalidations - before.Invalidations
	switch outcome {
	case "recompute":
		return recomputes
	case "rerank":
		return invalid - recomputes
	}
	return after.Timestamps - before.Timestamps - invalid
}

// planeBenchIndex is BenchmarkPlaneUpdate's index: 100k uniform objects.
func planeBenchIndex(tb testing.TB) *vortree.Index { return planeIndex(tb, 100000) }

// planeIndex builds n uniform objects at the density of planeBenchIndex:
// 100k on a 10,000-unit square.
func planeIndex(tb testing.TB, n int) *vortree.Index {
	tb.Helper()
	side := 10000 * math.Sqrt(float64(n)/100000)
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(side, side))
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	ix, _, err := vortree.Build(bounds, 16, pts)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// planeMix is the benchmark harness's plane sessions over ix: k = 1, 5,
// 10, 20 in turn, half of them stepping 2 and half 16 per update, each
// replaying 256 positions ping-pong, all through one scratch as on one
// shard. newPlaneMix places them, and before holds their counters then.
type planeMix struct {
	qs     []*PlaneQuery
	trajs  [][]geom.Point
	before metrics.Counters
}

func newPlaneMix(tb testing.TB, ix *vortree.Index) *planeMix {
	tb.Helper()
	const sessions, trajLen = 64, 256
	sc := new(vortree.SearchScratch)
	m := &planeMix{qs: make([]*PlaneQuery, sessions), trajs: make([][]geom.Point, sessions)}
	for i := range m.qs {
		step := 2.0
		if (i/4)%2 == 1 {
			step = 16
		}
		m.trajs[i] = trajectory.RandomWaypoint(ix.Bounds(), trajLen, step, int64(i))
		q, err := NewPlaneQuery(ix, []int{1, 5, 10, 20}[i%4], 1.6)
		if err != nil {
			tb.Fatal(err)
		}
		q.UseScratch(sc)
		if _, err := q.Update(m.trajs[i][0]); err != nil {
			tb.Fatal(err)
		}
		m.before.Add(*q.Metrics())
		m.qs[i] = q
	}
	return m
}

// update runs the mix's n-th update (from 0): sessions in turn.
func (m *planeMix) update(tb testing.TB, n int) {
	i, trajLen := n%len(m.qs), len(m.trajs[0])
	j := (n/len(m.qs) + 1) % (2*trajLen - 2) // ping-pong over 0..trajLen-1
	if j >= trajLen {
		j = 2*trajLen - 2 - j
	}
	if _, err := m.qs[i].Update(m.trajs[i][j]); err != nil {
		tb.Fatal(err)
	}
}

// since returns the search steps (distances evaluated plus index nodes
// read) per update and the share of updates that recomputed, in percent,
// since the sessions were placed.
func (m *planeMix) since() (steps, recomputePct float64) {
	var after metrics.Counters
	for _, q := range m.qs {
		after.Add(*q.Metrics())
	}
	updates := float64(after.Timestamps - m.before.Timestamps)
	steps = float64(after.DistanceCalcs-m.before.DistanceCalcs+after.NodeVisits-m.before.NodeVisits) / updates
	return steps, 100 * float64(after.Recomputations-m.before.Recomputations) / updates
}

// TestPlaneMixSearchSteps gates the search steps of BenchmarkPlaneUpdate/mix
// on a fixed run of it, 100 updates of each session, over 20k objects at
// the benchmark's density (the 100k index takes most of two seconds to
// build under the race detector). Its recomputations are the full pass's,
// 3170 of the 6400 updates, so the validation alone moves the steps: 9.54
// per update.
func TestPlaneMixSearchSteps(t *testing.T) {
	const updates, recomputes = 64 * 100, 3170
	m := newPlaneMix(t, planeIndex(t, 20000))
	for n := range updates {
		m.update(t, n)
	}
	steps, pct := m.since()
	if want := 100 * float64(recomputes) / updates; pct != want {
		t.Errorf("%.4f%% of %d updates recomputed, want %.4f%%", pct, updates, want)
	}
	if steps > 10 {
		t.Errorf("%.3f search steps per update, want at most 10", steps)
	}
	t.Logf("%.3f search steps per update, %.2f%% recomputed", steps, pct)
}

// BenchmarkPlaneUpdate is the core row of the per-layer ledger without the
// harness: one Update at 100k objects, k = 8, ρ = 1.6, by outcome, and the
// benchmark harness's mix of them (mix).
func BenchmarkPlaneUpdate(b *testing.B) {
	ix := planeBenchIndex(b)
	for _, outcome := range []string{"validate", "rerank", "recompute"} {
		q, pos := outcomeLoop(b, ix, outcome, 9)
		step := 0 // runs on across the b.N ramp: the query is at pos[step&1]
		b.Run(outcome, func(b *testing.B) {
			before := *q.Metrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step++
				if _, err := q.Update(pos[step&1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := *q.Metrics()
			b.ReportMetric(float64(after.DistanceCalcs-before.DistanceCalcs+after.NodeVisits-before.NodeVisits)/float64(b.N), "searchsteps/op")
			if took := outcomeCount(before, after, outcome); took != b.N {
				b.Fatalf("only %d of %d updates took outcome %s", took, b.N, outcome)
			}
		})
	}
	// Their first placements happen before the clock starts.
	b.Run("mix", func(b *testing.B) {
		m := newPlaneMix(b, ix)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			m.update(b, n)
		}
		b.StopTimer()
		steps, recompute := m.since()
		b.ReportMetric(steps, "searchsteps/op")
		b.ReportMetric(recompute, "recompute%")
	})
}
