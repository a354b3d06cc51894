package vortree

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
)

// heapLive is the live heap after two collections.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlaneHeapBudget holds the plane side to its storage budget, the twin of
// netvor's TestNetworkHeapBudget: a built index retains at most 85 bytes per
// object (points 16, two 24-byte faces 48, vertex-face hints 4, entry grid
// 2.6, page headers and directories), and a search scratch that has served
// k = 20, ρ = 1.6 recomputations at most 16 KB — at 10k objects, at 100k,
// and after 50k inserts and 50k removals have pushed the id space half
// again as far: it is sized by the search, not by the index.
func TestPlaneHeapBudget(t *testing.T) {
	const (
		m         = 32 // ⌊1.6·20⌋
		scratches = 64 // measured together, so a few KB of runtime noise do not count
		budget    = 16 << 10
	)
	serve := func(ix *Index, scs []SearchScratch, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var buf []int
		for i := range scs {
			hint := NoHint
			for j := 0; j < 8; j++ { // a cold start first, then hint walks
				q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				ids, _, nR, _ := ix.AppendPrefetch(q, m, hint, false, buf[:0], nil, &scs[i])
				if nR != m {
					t.Fatalf("AppendPrefetch found %d objects", nR)
				}
				buf, hint = ids, ids[0]
			}
		}
	}
	scratchBytes := func(ix *Index, scs []SearchScratch, seed int64) float64 {
		before := heapLive()
		serve(ix, scs, seed)
		// A heap that dipped in between reads as no growth, not as 2^64.
		return max(0, float64(heapLive())-float64(before)) / float64(len(scs))
	}
	// One size per call, so that nothing of one round is live in the next
	// round's baseline.
	atSize := func(n int) {
		pts := randomPoints(n, 51)
		before := heapLive()
		ix, _, err := Build(testBounds, 16, pts)
		if err != nil {
			t.Fatal(err)
		}
		built := heapLive()
		// The input is in both readings: freed in between, its 16 B per
		// object would be credited to the index.
		runtime.KeepAlive(pts)
		perObject := float64(built-before) / float64(n)
		t.Logf("%d objects: index %.1f B per object", n, perObject)
		if n >= 50000 && perObject > 85 {
			t.Errorf("%d objects: the index retains %.1f B per object, budget 85", n, perObject)
		}
		scs := make([]SearchScratch, scratches)
		per := scratchBytes(ix, scs, 52)
		t.Logf("%d objects: idle scratch %.0f B", n, per)
		if per > budget {
			t.Errorf("%d objects: an idle search scratch retains %.0f B, budget %d", n, per, budget)
		}
		if n < 100000 {
			return
		}
		// Churn burns ids: the same scratches on the index 100k mutations
		// later retain nothing more.
		rng := rand.New(rand.NewSource(53))
		for i := 0; i < 50000; i++ {
			if _, err := ix.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil {
				t.Fatal(err)
			}
			if err := ix.Remove(i); err != nil {
				t.Fatal(err)
			}
		}
		if ix.NextID() != n+50000 || ix.Len() != n {
			t.Fatalf("after the churn: NextID %d, Len %d", ix.NextID(), ix.Len())
		}
		grown := scratchBytes(ix, scs, 54)
		t.Logf("%d objects, ids to %d: scratches grew by %.0f B each", n, ix.NextID(), grown)
		if per+grown > budget {
			t.Errorf("after 50k inserts and removals a scratch retains %.0f B, budget %d", per+grown, budget)
		}
		runtime.KeepAlive(scs)
		runtime.KeepAlive(ix)
	}
	atSize(10000)
	atSize(100000)
}

// wideIndexes are two unrelated indexes — different bounds, sizes and id
// spaces — and a later version of the first whose id space is half again as
// large, for tests that pass one scratch among them.
func wideIndexes(t *testing.T) []*Index {
	t.Helper()
	a, _, err := Build(testBounds, 16, randomPoints(12000, 61))
	if err != nil {
		t.Fatal(err)
	}
	later := a.Branch()
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 6000; i++ {
		if _, err := later.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := later.Remove(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	lattice := make([]geom.Point, 0, 30*30)
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	b, _, err := Build(geom.NewRect(geom.Pt(0, 0), geom.Pt(29, 29)), 8, lattice)
	if err != nil {
		t.Fatal(err)
	}
	return []*Index{a, b, later}
}

// checkKNNAndINS verifies AppendKNN against brute force (by distance, so
// lattice ties pass) and AppendINS of its result against the reference
// construction of Definition 4.
func checkKNNAndINS(t *testing.T, ix *Index, q geom.Point, k int, sc *SearchScratch) {
	t.Helper()
	knn, _ := ix.AppendKNN(q, k, nil, sc)
	want := bruteKNN(ix, q, k)
	if len(knn) != len(want) {
		t.Fatalf("q=%v k=%d: AppendKNN returned %d objects, brute force %d", q, k, len(knn), len(want))
	}
	for i := range knn {
		if got, w := q.Dist2(ix.Point(knn[i])), q.Dist2(ix.Point(want[i])); got != w {
			t.Fatalf("q=%v k=%d: kNN[%d] at d2 %g, brute force has d2 %g", q, k, i, got, w)
		}
	}
	ins, err := ix.AppendINS(knn, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantINS, err := ix.INS(knn)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ins, wantINS) {
		t.Fatalf("q=%v k=%d: AppendINS has %d objects, Definition 4 has %d", q, k, len(ins), len(wantINS))
	}
}

// TestVisitedSetWideSearches: the visited set doubles several times inside
// one search and stays exact. One scratch serves k from 1 to 2,000 — and
// back, and past the size of the smallest index — alternately on an index, a
// later version of it with a larger id space, and an unrelated index, with
// every answer checked against brute force and Definition 4.
func TestVisitedSetWideSearches(t *testing.T) {
	ixs := wideIndexes(t)
	rng := rand.New(rand.NewSource(63))
	var sc SearchScratch
	var buf []int
	for round, k := range []int{1, 2000, 7, 300, 2000, 40, 1200, 3} {
		for _, ix := range ixs {
			b := ix.Bounds()
			q := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
			ids, ds, nR, _ := ix.AppendPrefetch(q, k, NoHint, false, buf[:0], nil, &sc)
			buf = ids
			checkPrefetch(t, ix, q, k, ids, ds, nR)
			checkKNNAndINS(t, ix, q, k, &sc)
			if round == 1 && ix == ixs[0] {
				// 2,000 taken and their neighbors reached, at most a quarter
				// of the table: it started at 64 slots.
				if len(sc.seen) < 8192 {
					t.Fatalf("visited table has %d slots after reaching %d objects", len(sc.seen), len(ids))
				}
			}
		}
	}
	// The cold forms allocate their own: same answers.
	ix := ixs[2]
	q := geom.Pt(321, 654)
	knn := ix.KNN(q, 500)
	if want, _ := ix.AppendKNN(q, 500, nil, &sc); !slices.Equal(knn, want) {
		t.Fatal("KNN differs from AppendKNN")
	}
}

// TestVisitedSetEpochWrapWideSearch: a wide search straddling the epoch
// wrap. The slots the table filled at epochs 1, 2, 3 before the jump would
// read as live again at epochs 1, 2, 3 after it, had the wrap not wiped
// them.
func TestVisitedSetEpochWrapWideSearch(t *testing.T) {
	ixs := wideIndexes(t)
	var sc SearchScratch
	q := geom.Pt(15, 15) // inside every index's bounds
	for i := 0; i < 3; i++ {
		checkKNNAndINS(t, ixs[i], q, 600, &sc) // two epochs each
	}
	sc.epoch = ^uint32(0) - 2
	for i := 0; i < 6; i++ {
		ix := ixs[i%3]
		ids, ds, nR, _ := ix.AppendPrefetch(q, 600, NoHint, false, nil, nil, &sc)
		checkPrefetch(t, ix, q, 600, ids, ds, nR)
	}
	if sc.epoch == 0 || sc.epoch > 6 {
		t.Fatalf("epoch = %d after wrapping, want a small non-zero value", sc.epoch)
	}
}

// TestVisitedSetSteadyStateAllocatesNothing: once a scratch has served a
// search of some width, searches of that width or less allocate nothing —
// including the very next one after the table grew, on whichever index.
func TestVisitedSetSteadyStateAllocatesNothing(t *testing.T) {
	ixs := wideIndexes(t)
	var sc SearchScratch
	buf := make([]int, 0, 8192)
	dbuf := make([]float64, 0, 8192)
	q := geom.Pt(14.5, 15.25)
	search := func(ix *Index, m, hint int) func() {
		return func() { buf, dbuf, _, _ = ix.AppendPrefetch(q, m, hint, false, buf[:0], dbuf[:0], &sc) }
	}
	for _, m := range []int{32, 2000} { // the second grows the table seven times
		search(ixs[0], m, NoHint)()
		hint := buf[0]
		for i, ix := range ixs {
			if allocs := testing.AllocsPerRun(20, search(ix, m, NoHint)); allocs != 0 {
				t.Errorf("m=%d, index %d: %.1f allocs per cold AppendPrefetch, want 0", m, i, allocs)
			}
		}
		if allocs := testing.AllocsPerRun(20, search(ixs[0], 32, hint)); allocs != 0 {
			t.Errorf("after m=%d: %.1f allocs per hinted AppendPrefetch, want 0", m, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			buf, _ = ixs[0].AppendKNN(q, m, buf[:0], &sc)
			buf, _ = ixs[0].AppendINS(buf, buf, &sc)
		}); allocs != 0 {
			t.Errorf("m=%d: %.1f allocs per AppendKNN + AppendINS, want 0", m, allocs)
		}
	}
}
