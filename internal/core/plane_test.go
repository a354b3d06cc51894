package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/vortree"
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

func buildIndex(t testing.TB, n int, seed int64) *vortree.Index {
	t.Helper()
	ix, _, err := vortree.Build(testBounds, 16, randomPoints(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkKNNAgainstBrute compares a result set with ground truth by distance
// multiset, which tolerates ties between equally distant objects.
func checkKNNAgainstBrute(t *testing.T, ix *vortree.Index, p geom.Point, got []int, k int) {
	t.Helper()
	ids := ix.IDs()
	dists := make([]float64, 0, len(ids))
	for _, id := range ids {
		dists = append(dists, p.Dist2(ix.Point(id)))
	}
	sort.Float64s(dists)
	if len(got) != k {
		t.Fatalf("result has %d ids, want %d", len(got), k)
	}
	gd := make([]float64, 0, k)
	seen := make(map[int]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %d in result %v", id, got)
		}
		seen[id] = true
		gd = append(gd, p.Dist2(ix.Point(id)))
	}
	sort.Float64s(gd)
	for i := 0; i < k; i++ {
		if math.Abs(gd[i]-dists[i]) > 1e-9*(dists[i]+1) {
			t.Fatalf("kNN distance[%d] = %g, want %g (result %v)", i, gd[i], dists[i], got)
		}
	}
}

// walkTrajectory yields random-waypoint positions inside bounds.
func walkTrajectory(steps int, stepLen float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pos := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	target := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	out := make([]geom.Point, 0, steps)
	for len(out) < steps {
		d := target.Sub(pos)
		n := d.Norm()
		if n < stepLen {
			target = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			continue
		}
		pos = pos.Add(d.Scale(stepLen / n))
		out = append(out, pos)
	}
	return out
}

func TestNewPlaneQueryValidation(t *testing.T) {
	ix := buildIndex(t, 10, 1)
	if _, err := NewPlaneQuery(ix, 0, 1.5); err == nil {
		t.Error("expected error for k=0")
	}
	for _, rho := range []float64{0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewPlaneQuery(ix, 3, rho); err == nil {
			t.Errorf("expected error for rho=%g", rho)
		}
	}
	// A finite ρ whose ρk is past the int range prefetches every object.
	huge, err := NewPlaneQuery(ix, 3, 1e300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := huge.Update(geom.Pt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if huge.nR != ix.Len() {
		t.Errorf("rho=1e300 prefetched %d objects, want all %d", huge.nR, ix.Len())
	}
	q, err := NewPlaneQuery(ix, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(geom.Pt(1, 1)); err == nil {
		t.Error("expected error for k > n at first update")
	}
}

func TestPlaneQueryEmptyIndex(t *testing.T) {
	ix := vortree.New(testBounds)
	q, err := NewPlaneQuery(ix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(geom.Pt(1, 1)); err == nil {
		t.Error("expected error on empty index")
	}
}

// TestPlaneQueryRejectsBadPosition: a point with a NaN or infinite
// coordinate is not an update. It is rejected with ErrInvalidPosition before
// anything is counted, and the answer of the last good update stands.
func TestPlaneQueryRejectsBadPosition(t *testing.T) {
	q, err := NewPlaneQuery(buildIndex(t, 60, 2), 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	good := geom.Pt(500, 500)
	if _, err := q.Update(good); err != nil {
		t.Fatal(err)
	}
	before, knn := *q.Metrics(), q.Current()
	for _, bad := range []geom.Point{{X: math.NaN(), Y: 1}, {X: 1, Y: math.NaN()}, {X: math.Inf(1), Y: 1}, {X: 1, Y: math.Inf(-1)}} {
		if got, err := q.Update(bad); !errors.Is(err, ErrInvalidPosition) || got != nil {
			t.Errorf("Update(%v) = %v, %v; want ErrInvalidPosition", bad, got, err)
		}
	}
	if after := *q.Metrics(); after != before {
		t.Errorf("rejected positions moved the counters: %+v -> %+v", before, after)
	}
	if !slices.Equal(q.Current(), knn) {
		t.Errorf("rejected positions changed the kNN set: %v -> %v", knn, q.Current())
	}
	if _, err := q.Update(good); err != nil || q.Metrics().Recomputations != before.Recomputations {
		t.Errorf("update after rejected positions: err %v, recomputations %d -> %d", err, before.Recomputations, q.Metrics().Recomputations)
	}
}

func TestPlaneQueryCorrectAlongTrajectory(t *testing.T) {
	ix := buildIndex(t, 500, 2)
	for _, k := range []int{1, 3, 8} {
		for _, rho := range []float64{1.0, 1.6, 2.5} {
			q, err := NewPlaneQuery(ix, k, rho)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range walkTrajectory(400, 2.5, int64(k*100)+int64(rho*10)) {
				got, err := q.Update(p)
				if err != nil {
					t.Fatal(err)
				}
				checkKNNAgainstBrute(t, ix, p, got, k)
			}
		}
	}
}

func TestPlaneQueryRecomputesRarely(t *testing.T) {
	ix := buildIndex(t, 2000, 3)
	q, err := NewPlaneQuery(ix, 5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(1000, 1.5, 4) {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	m := q.Metrics()
	if m.Timestamps != 1000 {
		t.Fatalf("Timestamps = %d, want 1000", m.Timestamps)
	}
	if m.Recomputations >= m.Timestamps/5 {
		t.Errorf("INS recomputed too often: %d times in %d steps", m.Recomputations, m.Timestamps)
	}
	if m.Recomputations < 1 {
		t.Error("expected at least the initial recomputation")
	}
	if m.Invalidations < m.Recomputations-1 {
		t.Errorf("invalidations (%d) below recomputations (%d)", m.Invalidations, m.Recomputations)
	}
}

func TestPrefetchReducesRecomputations(t *testing.T) {
	ix := buildIndex(t, 2000, 5)
	traj := walkTrajectory(1500, 2, 6)
	recomps := make(map[float64]int)
	for _, rho := range []float64{1.0, 2.0} {
		q, err := NewPlaneQuery(ix, 5, rho)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range traj {
			if _, err := q.Update(p); err != nil {
				t.Fatal(err)
			}
		}
		recomps[rho] = q.Metrics().Recomputations
	}
	if recomps[2.0] > recomps[1.0] {
		t.Errorf("rho=2 recomputed %d times, rho=1 %d times; prefetch should not hurt",
			recomps[2.0], recomps[1.0])
	}
}

func TestPlaneQueryStationaryNeverRecomputes(t *testing.T) {
	ix := buildIndex(t, 300, 7)
	q, err := NewPlaneQuery(ix, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(400, 400)
	for i := 0; i < 50; i++ {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Metrics().Recomputations; got != 1 {
		t.Errorf("stationary query recomputed %d times, want 1", got)
	}
	if got := q.Metrics().Invalidations; got != 0 {
		t.Errorf("stationary query invalidated %d times, want 0", got)
	}
}

func TestInfluenceSetDisjointFromKNN(t *testing.T) {
	ix := buildIndex(t, 400, 8)
	q, err := NewPlaneQuery(ix, 6, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(100, 3, 9) {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
		inKNN := make(map[int]bool)
		for _, id := range q.Current() {
			inKNN[id] = true
		}
		for _, id := range q.InfluenceSet() {
			if inKNN[id] {
				t.Fatalf("influence set member %d is in the kNN set", id)
			}
		}
	}
}

// pinnedIndex returns a store of n random objects and a query kept on it.
func pinnedIndex(t *testing.T, n int, seed int64, k int) (*index.Store, *planeOnStore) {
	t.Helper()
	st, err := index.NewStore(index.Config{Bounds: testBounds, Objects: randomPoints(n, seed)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	q, err := newPlaneOnStore(st, k, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	return st, q
}

// TestInsertObjectKeepsResultCorrect: inserts next to the query and far from
// it, each repaired by Refresh, leave the answer the brute-force kNN.
func TestInsertObjectKeepsResultCorrect(t *testing.T) {
	st, q := pinnedIndex(t, 300, 10, 5)
	rng := rand.New(rand.NewSource(11))
	traj := walkTrajectory(300, 2, 12)
	for i, p := range traj {
		got, err := q.Update(p)
		if err != nil {
			t.Fatal(err)
		}
		checkKNNAgainstBrute(t, st.Current().Plane(), p, got, 5)
		if i%10 == 5 {
			// Insert sometimes right next to the query, sometimes far away.
			var np geom.Point
			if rng.Intn(2) == 0 {
				np = geom.Pt(p.X+rng.Float64()*20-10, p.Y+rng.Float64()*20-10)
				np.X = math.Min(math.Max(np.X, 0), 1000)
				np.Y = math.Min(math.Max(np.Y, 0), 1000)
			} else {
				np = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			if _, err := st.Insert(np); err != nil {
				t.Fatal(err)
			}
			if _, _, err := q.Refresh(); err != nil {
				t.Fatal(err)
			}
			// Result must already reflect the insert at the same position.
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkKNNAgainstBrute(t, st.Current().Plane(), p, got, 5)
		}
	}
}

// TestRemoveObjectKeepsResultCorrect: removals of kNN members and of random
// objects, each repaired by Refresh, leave the answer the brute-force kNN.
func TestRemoveObjectKeepsResultCorrect(t *testing.T) {
	st, q := pinnedIndex(t, 400, 13, 5)
	rng := rand.New(rand.NewSource(14))
	traj := walkTrajectory(300, 2, 15)
	for i, p := range traj {
		got, err := q.Update(p)
		if err != nil {
			t.Fatal(err)
		}
		checkKNNAgainstBrute(t, st.Current().Plane(), p, got, 5)
		if i%10 == 5 && st.Current().Plane().Len() > 50 {
			// Remove sometimes a current kNN member (worst case), sometimes
			// a random object.
			var victim int
			if rng.Intn(2) == 0 {
				victim = q.Current()[rng.Intn(len(q.Current()))]
			} else {
				ids := st.Current().Plane().IDs()
				victim = ids[rng.Intn(len(ids))]
			}
			if err := st.Remove(victim); err != nil {
				t.Fatal(err)
			}
			if _, _, err := q.Refresh(); err != nil {
				t.Fatal(err)
			}
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkKNNAgainstBrute(t, st.Current().Plane(), p, got, 5)
		}
	}
}

func TestValidationIsSound(t *testing.T) {
	// Whenever a step does not recompute and does not re-rank, the kNN set
	// must still be the true kNN set — checked exhaustively against brute
	// force on a small dataset where invalidations are frequent.
	ix := buildIndex(t, 60, 16)
	q, err := NewPlaneQuery(ix, 3, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(500, 5, 17) {
		got, err := q.Update(p)
		if err != nil {
			t.Fatal(err)
		}
		checkKNNAgainstBrute(t, ix, p, got, 3)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	ix := buildIndex(t, 200, 18)
	q, _ := NewPlaneQuery(ix, 4, 1.5)
	for _, p := range walkTrajectory(50, 4, 19) {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	m := q.Metrics()
	if m.Timestamps != 50 || m.Validations != 49 {
		t.Errorf("Timestamps=%d Validations=%d, want 50/49", m.Timestamps, m.Validations)
	}
	if m.DistanceCalcs == 0 || m.ObjectsShipped == 0 {
		t.Errorf("cost counters empty: %+v", *m)
	}
	if m.Recomputations <= 0 {
		t.Error("no recomputation counted")
	}
}
