package vortree

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// insertBuilt is the per-object reference the bulk paths are checked
// against: the index grown one Insert at a time in id order, burned ids
// padded one at a time — how Build and Restore worked before they packed.
// nextID < 0 means "whatever the inserts reach".
func insertBuilt(t testing.TB, bounds geom.Rect, objs []RestoreObject, nextID int) *Index {
	t.Helper()
	ix := New(bounds)
	pad := func(upTo int) {
		for ix.NextID() < upTo {
			if _, err := ix.tri.PadVertex(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, o := range objs {
		pad(o.ID)
		if id, err := ix.Insert(o.P); err != nil || id != o.ID {
			t.Fatalf("reference insert of id %d: got %d, %v", o.ID, id, err)
		}
	}
	pad(nextID)
	return ix
}

// firstOccurrences turns a Build input into the objects it creates: ids
// count first occurrences in input order.
func firstOccurrences(pts []geom.Point) (objs []RestoreObject, ids []int) {
	seen := make(map[geom.Point]int, len(pts))
	ids = make([]int, len(pts))
	for i, p := range pts {
		id, ok := seen[p]
		if !ok {
			id = len(objs)
			seen[p] = id
			objs = append(objs, RestoreObject{ID: id, P: p})
		}
		ids[i] = id
	}
	return objs, ids
}

func neighborSet(t testing.TB, ix *Index, id int) []int {
	t.Helper()
	nb, err := ix.Neighbors(id)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(nb)
	return nb
}

// sameDistances reports whether two id lists, each read against its own
// index, name objects at the same distances from q rank by rank — equal
// answers up to which of several equidistant objects was taken.
func sameDistances(q geom.Point, a *Index, as []int, b *Index, bs []int) bool {
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if math.Abs(q.Dist(a.Point(as[i]))-q.Dist(b.Point(bs[i]))) > 1e-9 {
			return false
		}
	}
	return true
}

// compareIndexes checks a bulk-built index against the insert-built one
// over the same objects: same ids and id space, and the same answers from
// every search the query processor runs. unique says the input is in
// general position, where the Voronoi diagram is unique and neighbor sets,
// I(R) included, must be identical; on cocircular input the two builds may
// legitimately pick different diagonals, so there kNN is compared by
// distance and each index's fused R + I(R) against its own oracles.
func compareIndexes(t *testing.T, bulk, ref *Index, bounds geom.Rect, unique bool, seed int64) {
	t.Helper()
	if bulk.Len() != ref.Len() || bulk.NextID() != ref.NextID() {
		t.Fatalf("Len %d, NextID %d; insert-built has %d, %d", bulk.Len(), bulk.NextID(), ref.Len(), ref.NextID())
	}
	ids := bulk.IDs()
	if !slices.Equal(ids, ref.IDs()) {
		t.Fatal("live id sets differ")
	}
	for _, id := range ids {
		if bulk.Point(id) != ref.Point(id) {
			t.Fatalf("id %d at %v, insert-built has it at %v", id, bulk.Point(id), ref.Point(id))
		}
		if unique && !slices.Equal(neighborSet(t, bulk, id), neighborSet(t, ref, id)) {
			t.Fatalf("id %d: Voronoi neighbors %v, insert-built has %v", id, neighborSet(t, bulk, id), neighborSet(t, ref, id))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var scB, scR SearchScratch
	for i := 0; i < 60; i++ {
		q := geom.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
		if i%4 == 1 && len(ids) > 0 {
			q = bulk.Point(ids[rng.Intn(len(ids))]) // on a data point
		}
		k := 1 + rng.Intn(16)
		knnB, _ := bulk.AppendKNN(q, k, nil, &scB)
		knnR, _ := ref.AppendKNN(q, k, nil, &scR)
		if !sameDistances(q, bulk, knnB, ref, knnR) {
			t.Fatalf("kNN(%v, %d) = %v, insert-built answers %v", q, k, knnB, knnR)
		}
		pfB, dsB, nB, _ := bulk.AppendPrefetch(q, k, NoHint, false, nil, nil, &scB)
		pfR, dsR, nR, _ := ref.AppendPrefetch(q, k, NoHint, false, nil, nil, &scR)
		checkPrefetch(t, bulk, q, k, pfB, dsB, nB)
		checkPrefetch(t, ref, q, k, pfR, dsR, nR)
		if !unique {
			continue
		}
		// Same R (no ties in general position), so the same I(R) as a set,
		// from the fused search and from the reference construction alike;
		// its order is the frontier's, which follows neighbor-list order.
		if nB != nR || !slices.Equal(pfB[:nB], pfR[:nR]) ||
			!slices.Equal(slices.Sorted(slices.Values(pfB[nB:])), slices.Sorted(slices.Values(pfR[nR:]))) {
			t.Fatalf("prefetch(%v, %d) = %v / %d, insert-built answers %v / %d", q, k, pfB, nB, pfR, nR)
		}
		insB, errB := bulk.INS(knnB)
		insR, errR := ref.INS(knnB)
		if errB != nil || errR != nil {
			t.Fatal(errB, errR)
		}
		if !slices.Equal(insB, insR) {
			t.Fatalf("INS(%v) = %v, insert-built answers %v", knnB, insB, insR)
		}
	}
}

// bulkCases are the inputs the differential tests run on.
func bulkCases() []struct {
	name   string
	bounds geom.Rect
	pts    []geom.Point
	unique bool
} {
	var clusters, lattice, line []geom.Point
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 1500; i++ {
		c := geom.Pt(200, 250)
		if i%2 == 1 {
			c = geom.Pt(820, 700)
		}
		clusters = append(clusters, geom.Pt(c.X+rng.NormFloat64()*30, c.Y+rng.NormFloat64()*30))
	}
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	for i := 0; i < 900; i++ {
		line = append(line, geom.Pt(float64((i*37)%900), 400)) // not in x order
	}
	dups := randomPoints(800, 51)
	dups = append(dups, dups[:300]...)
	dups = append(dups, dups[100:400]...)
	edges := randomPoints(200, 52)
	for i := 0; i < 200; i++ { // an independent draw per edge: mirrored ones would be cocircular
		edges = append(edges, geom.Pt(0, rng.Float64()*1000), geom.Pt(1000, rng.Float64()*1000),
			geom.Pt(rng.Float64()*1000, 0), geom.Pt(rng.Float64()*1000, 1000))
	}
	edges = append(edges, geom.Pt(0, 0), geom.Pt(1000, 0), geom.Pt(0, 1000), geom.Pt(1000, 1000))
	return []struct {
		name   string
		bounds geom.Rect
		pts    []geom.Point
		unique bool
	}{
		{"uniform", testBounds, randomPoints(4000, 53), true},
		{"two clusters", testBounds, clusters, true},
		{"integer lattice", geom.NewRect(geom.Pt(0, 0), geom.Pt(39, 39)), lattice, false},
		{"single line", testBounds, line, true},
		{"duplicates", testBounds, dups, true},
		{"bounds edges and corners", testBounds, edges, true},
		{"one point", testBounds, []geom.Point{geom.Pt(1, 1)}, true},
		{"empty", testBounds, nil, true},
	}
}

// TestBulkBuildMatchesInsertBuilt is the differential test of the bulk
// construction path: for uniform, clustered and every kind of degenerate
// input, Build assigns the ids an Insert loop assigns and the packed index
// answers as the grown one does.
func TestBulkBuildMatchesInsertBuilt(t *testing.T) {
	for _, tc := range bulkCases() {
		t.Run(tc.name, func(t *testing.T) {
			objs, wantIDs := firstOccurrences(tc.pts)
			bulk, ids, err := Build(tc.bounds, 16, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, wantIDs) {
				t.Fatal("Build ids are not first occurrences in input order")
			}
			ref := insertBuilt(t, tc.bounds, objs, -1)
			compareIndexes(t, bulk, ref, tc.bounds, tc.unique, 54)
		})
	}
}

// TestRestoreGapsThenChurn restores each input with a third of its ids
// burned and more burned past the last live one, checks it against the
// insert-and-pad reference, then runs 100 interleaved inserts and removes
// through both: the ids handed out and the answers stay the same, i.e. a
// recovered index is indistinguishable from one that never crashed.
func TestRestoreGapsThenChurn(t *testing.T) {
	for _, tc := range bulkCases() {
		t.Run(tc.name, func(t *testing.T) {
			all, _ := firstOccurrences(tc.pts)
			rng := rand.New(rand.NewSource(55))
			var objs []RestoreObject
			for _, o := range all {
				if rng.Intn(3) != 0 {
					objs = append(objs, o)
				}
			}
			nextID := len(all) + 7
			bulk, err := Restore(tc.bounds, objs, nextID)
			if err != nil {
				t.Fatal(err)
			}
			ref := insertBuilt(t, tc.bounds, objs, nextID)
			compareIndexes(t, bulk, ref, tc.bounds, tc.unique, 56)

			live := make([]int, len(objs))
			for i, o := range objs {
				live[i] = o.ID
			}
			for step := 0; step < 100; step++ {
				if step%2 == 1 && len(live) > 0 {
					i := rng.Intn(len(live))
					if errB, errR := bulk.Remove(live[i]), ref.Remove(live[i]); errB != nil || errR != nil {
						t.Fatalf("step %d: remove %d: %v / %v", step, live[i], errB, errR)
					}
					live = append(live[:i], live[i+1:]...)
					continue
				}
				// A fresh point, or one a burned id used to hold.
				p := geom.Pt(tc.bounds.Min.X+rng.Float64()*tc.bounds.Width(), tc.bounds.Min.Y+rng.Float64()*tc.bounds.Height())
				if step%10 == 0 && len(all) > 0 {
					p = all[rng.Intn(len(all))].P
				}
				idB, errB := bulk.Insert(p)
				idR, errR := ref.Insert(p)
				if errB != nil || errR != nil || idB != idR {
					t.Fatalf("step %d: insert %v: id %d (%v), insert-built %d (%v)", step, p, idB, errB, idR, errR)
				}
				if !slices.Contains(live, idB) {
					live = append(live, idB)
				}
			}
			compareIndexes(t, bulk, ref, tc.bounds, tc.unique, 57)
		})
	}
}

// TestBulkRestoreRejects: every saved state Restore cannot reproduce is
// refused while the ids are being reserved — before anything is
// triangulated or an array is sized by nextID.
func TestBulkRestoreRejects(t *testing.T) {
	at := func(id int, x, y float64) RestoreObject { return RestoreObject{ID: id, P: geom.Pt(x, y)} }
	for _, tc := range []struct {
		name   string
		objs   []RestoreObject
		nextID int
		is     error
		text   string
	}{
		{"id at nextID", []RestoreObject{at(0, 1, 1), at(3, 2, 2), at(4, 3, 3)}, 3, nil,
			"vortree: restore: 2 objects with ids >= nextID 3"},
		{"ids descending", []RestoreObject{at(0, 1, 1), at(2, 2, 2), at(1, 3, 3)}, 3, nil,
			"vortree: restore assigned id 3, want 1 (objs not ascending?)"},
		{"id repeated", []RestoreObject{at(0, 1, 1), at(0, 2, 2)}, 3, nil,
			"vortree: restore assigned id 1, want 0 (objs not ascending?)"},
		{"negative id", []RestoreObject{at(-1, 1, 1)}, 3, nil,
			"vortree: restore assigned id 0, want -1 (objs not ascending?)"},
		{"two objects on one point", []RestoreObject{at(0, 1, 1), at(5, 1, 1)}, 6, nil,
			"vortree: restore assigned id 0, want 5 (objs not ascending?)"},
		{"out of bounds", []RestoreObject{at(0, 1, 1), at(2, 1000.5, 1)}, 3, delaunay.ErrOutOfBounds,
			"vortree: restore id 2: delaunay: point outside triangulation bounds"},
		{"nextID past the id space", []RestoreObject{at(0, 1, 1)}, math.MaxInt32, delaunay.ErrTooManyVertices,
			"vortree: restore: nextID 2147483647: delaunay: vertex id space exhausted"},
	} {
		ix, err := Restore(testBounds, tc.objs, tc.nextID)
		if err == nil || ix != nil {
			t.Errorf("%s: Restore = %v, %v; want an error", tc.name, ix, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.text) {
			t.Errorf("%s: error %q, want it to start %q", tc.name, err, tc.text)
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %q does not wrap %q", tc.name, err, tc.is)
		}
	}
	if ix, ids, err := Build(testBounds, 16, []geom.Point{geom.Pt(1, 1), geom.Pt(-1, 1)}); !errors.Is(err, delaunay.ErrOutOfBounds) || ix != nil || ids != nil {
		t.Errorf("Build with a point out of bounds = %v, %v, %v", ix, ids, err)
	}
}

// TestBulkBranchIsolation publishes a bulk-built index as the snapshot
// store does — Branch, mutate the branch — while readers keep searching
// the frozen parent: its answers must not change, and under -race the
// pages it shares with the branch must never be written.
func TestBulkBranchIsolation(t *testing.T) {
	pts := randomPoints(5000, 58)
	parent, ids, err := Build(testBounds, 16, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	queries := make([]geom.Point, 40)
	want := make([][]int, len(queries))
	var sc SearchScratch
	for i := range queries {
		queries[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		want[i], _, _, _ = parent.AppendPrefetch(queries[i], 8, NoHint, false, nil, nil, &sc)
	}
	head := parent.Branch()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var sc SearchScratch
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := i % len(queries)
				if got, _, _, _ := parent.AppendPrefetch(queries[j], 8, NoHint, false, nil, nil, &sc); !slices.Equal(got, want[j]) {
					t.Errorf("frozen parent changed: prefetch(%v) = %v, was %v", queries[j], got, want[j])
					return
				}
			}
		}(r)
	}
	for step := 0; step < 300; step++ {
		if step%25 == 24 {
			head = head.Branch() // a chain of epochs, as the store publishes
		}
		if step%2 == 0 {
			if err := head.Remove(ids[step]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := head.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := parent.Insert(geom.Pt(3, 3)); err == nil {
		t.Error("frozen parent accepted an insert")
	}
	for i, q := range queries {
		if got := head.KNN(q, 8); !sameIDSet(got, bruteKNN(head, q, 8)) {
			t.Fatalf("head of the chain: kNN(%v) = %v, brute force %v", queries[i], got, bruteKNN(head, q, 8))
		}
	}
}

// TestBulkDegenerateBuildTime guards the link order against the inputs a
// space-filling order could be worst on: a fully cocircular lattice and a
// fully collinear line must build within 3x the time of as many uniform
// points, not hit a walk or flip blow-up.
func TestBulkDegenerateBuildTime(t *testing.T) {
	side := 316 // ~100k points
	if testing.Short() {
		side = 120
	}
	n := side * side
	lattice := make([]geom.Point, 0, n)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			lattice = append(lattice, geom.Pt(float64(x*3), float64(y*3)))
		}
	}
	line := make([]geom.Point, n)
	for i := range line {
		line[i] = geom.Pt(float64(i)*1000/float64(n), 500)
	}
	rand.New(rand.NewSource(60)).Shuffle(n, func(i, j int) { line[i], line[j] = line[j], line[i] })
	build := func(pts []geom.Point) time.Duration {
		best := time.Duration(math.MaxInt64)
		for run := 0; run < 2; run++ {
			t0 := time.Now()
			ix, _, err := Build(testBounds, 16, pts)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			if ix.Len() != len(pts) {
				t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
			}
		}
		return best
	}
	uniform := build(randomPoints(n, 61))
	for name, pts := range map[string][]geom.Point{"lattice": lattice, "line": line} {
		if d := build(pts); d > 3*uniform {
			t.Errorf("%s: %d points built in %v, uniform takes %v", name, n, d, uniform)
		} else {
			t.Logf("%s: %v (uniform %v)", name, d, uniform)
		}
	}
}

// BenchmarkBuild100k is the boot path: one plane index over 100k uniform
// points, as index.NewStore builds it.
func BenchmarkBuild100k(b *testing.B) {
	pts := randomPoints(100000, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(testBounds, 16, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore100k is the crash-recovery path: 100k live objects whose
// ids carry no spatial order and leave a third of the id space burned, as
// a checkpoint taken after churn does.
func BenchmarkRestore100k(b *testing.B) {
	pts := randomPoints(150000, 22)
	rng := rand.New(rand.NewSource(23))
	dead := rng.Perm(len(pts))[:50000]
	gone := make([]bool, len(pts))
	for _, id := range dead {
		gone[id] = true
	}
	objs := make([]RestoreObject, 0, 100000)
	for id, p := range pts {
		if !gone[id] {
			objs = append(objs, RestoreObject{ID: id, P: p})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(testBounds, objs, len(pts)); err != nil {
			b.Fatal(err)
		}
	}
}
