package baseline

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/roadnet"
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

// checkAgainstBrute compares a result against ground truth by distance
// multiset (tie-tolerant).
func checkAgainstBrute(t *testing.T, ix *vortree.Index, p geom.Point, got []int, k int) {
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
	for _, id := range got {
		gd = append(gd, p.Dist2(ix.Point(id)))
	}
	sort.Float64s(gd)
	for i := 0; i < k; i++ {
		if math.Abs(gd[i]-dists[i]) > 1e-9*(dists[i]+1) {
			t.Fatalf("distance[%d] = %g, want %g", i, gd[i], dists[i])
		}
	}
}

func TestNaivePlaneCorrect(t *testing.T) {
	ix := buildIndex(t, 300, 1)
	q, err := NewNaivePlane(ix, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(100, 3, 2) {
		got, err := q.Update(p)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBrute(t, ix, p, got, 5)
	}
	if q.Metrics().Recomputations != 100 {
		t.Errorf("naive should recompute every step, got %d/100", q.Metrics().Recomputations)
	}
}

func TestOrderKCellPlaneCorrect(t *testing.T) {
	ix := buildIndex(t, 250, 3)
	for _, assisted := range []bool{false, true} {
		q, err := NewOrderKCellPlane(ix, 4, assisted)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range walkTrajectory(300, 3, 4) {
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstBrute(t, ix, p, got, 4)
		}
		m := q.Metrics()
		if m.Recomputations >= m.Timestamps/2 {
			t.Errorf("assisted=%v: order-k cell recomputed %d of %d steps",
				assisted, m.Recomputations, m.Timestamps)
		}
	}
}

func TestVStarPlaneCorrect(t *testing.T) {
	ix := buildIndex(t, 250, 5)
	for _, x := range []int{1, 4, 10} {
		q, err := NewVStarPlane(ix, 4, x)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range walkTrajectory(300, 3, int64(x)) {
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstBrute(t, ix, p, got, 4)
		}
	}
}

func TestVStarLargerXRecomputesLess(t *testing.T) {
	ix := buildIndex(t, 1000, 6)
	traj := walkTrajectory(800, 2, 7)
	recomps := make(map[int]int)
	for _, x := range []int{1, 12} {
		q, err := NewVStarPlane(ix, 5, x)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range traj {
			if _, err := q.Update(p); err != nil {
				t.Fatal(err)
			}
		}
		recomps[x] = q.Metrics().Recomputations
	}
	if recomps[12] >= recomps[1] {
		t.Errorf("x=12 recomputed %d times, x=1 %d times; larger x should recompute less",
			recomps[12], recomps[1])
	}
}

// TestINSRecomputesNoMoreThanVStar is the paper's headline shape: INS
// matches the strict region's minimal recomputation frequency, so it should
// recompute no more often than V* (whose region is a subset of the order-k
// cell) on the same trajectory.
func TestINSRecomputesNoMoreThanVStar(t *testing.T) {
	ix := buildIndex(t, 1500, 8)
	traj := walkTrajectory(1000, 2, 9)

	insQ, err := core.NewPlaneQuery(ix, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	vstarQ, err := NewVStarPlane(ix, 5, 2) // x=2 ~ comparable shipped volume
	if err != nil {
		t.Fatal(err)
	}
	cellQ, err := NewOrderKCellPlane(ix, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range traj {
		if _, err := insQ.Update(p); err != nil {
			t.Fatal(err)
		}
		if _, err := vstarQ.Update(p); err != nil {
			t.Fatal(err)
		}
		if _, err := cellQ.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	insR := insQ.Metrics().Recomputations
	vstarR := vstarQ.Metrics().Recomputations
	cellR := cellQ.Metrics().Recomputations
	if insR > vstarR {
		t.Errorf("INS recomputed %d times, V* %d times; INS region is maximal", insR, vstarR)
	}
	// INS (with rho=1) and the order-k cell share the same safe region, so
	// their recomputation counts should be very close (small differences
	// come from discrete sampling at region boundaries).
	if diff := insR - cellR; diff < -3 || diff > 3 {
		t.Errorf("INS recomputed %d times vs order-k cell %d; they share the same region",
			insR, cellR)
	}
}

func TestNaiveNetworkCorrect(t *testing.T) {
	g, err := roadnet.RandomPlanarNetwork(200, testBounds, 0.5, 0.3, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	sites := rng.Perm(200)[:30]
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewNaiveNetwork(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 0, 2000, 12)
	if err != nil {
		t.Fatal(err)
	}
	for dist := 0.0; dist <= route.Length(); dist += 10 {
		pos := route.PositionAt(dist)
		got, err := q.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		checkNetAgainstBrute(t, d, pos, got, 4)
	}
}

func TestFullNetworkINSCorrectAndMatchesSubnetworkVariant(t *testing.T) {
	g, err := roadnet.RandomPlanarNetwork(300, testBounds, 0.5, 0.3, 13)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	sites := rng.Perm(300)[:50]
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewFullNetworkINS(d, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.NewNetworkQuery(d, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 1, 3000, 15)
	if err != nil {
		t.Fatal(err)
	}
	for dist := 0.0; dist <= route.Length(); dist += 8 {
		pos := route.PositionAt(dist)
		gotF, err := full.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		checkNetAgainstBrute(t, d, pos, gotF, 4)
		gotS, err := sub.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		checkNetAgainstBrute(t, d, pos, gotS, 4)
	}
	// Theorem 2's point: the subnetwork variant does far less per-step work.
	if sub.Metrics().EdgeRelaxations >= full.Metrics().EdgeRelaxations {
		t.Errorf("subnetwork validation relaxed %d edges vs full %d; expected a reduction",
			sub.Metrics().EdgeRelaxations, full.Metrics().EdgeRelaxations)
	}
}

func checkNetAgainstBrute(t *testing.T, d *netvor.Diagram, pos roadnet.Position, got []int, k int) {
	t.Helper()
	dist := d.Graph().ShortestDistances(pos.Sources(d.Graph()), -1)
	all := make([]float64, 0, len(d.Sites()))
	for _, s := range d.Sites() {
		all = append(all, dist[s])
	}
	sort.Float64s(all)
	if len(got) != k {
		t.Fatalf("result has %d ids, want %d", len(got), k)
	}
	gd := make([]float64, 0, k)
	for _, s := range got {
		gd = append(gd, dist[s])
	}
	sort.Float64s(gd)
	for i := 0; i < k; i++ {
		if math.Abs(gd[i]-all[i]) > 1e-9*(all[i]+1) {
			t.Fatalf("network distance[%d] = %g, want %g", i, gd[i], all[i])
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	ix := buildIndex(t, 10, 20)
	if _, err := NewNaivePlane(ix, 0); err == nil {
		t.Error("NaivePlane accepted k=0")
	}
	if _, err := NewOrderKCellPlane(ix, 0, false); err == nil {
		t.Error("OrderKCellPlane accepted k=0")
	}
	if _, err := NewVStarPlane(ix, 3, 0); err == nil {
		t.Error("VStarPlane accepted x=0")
	}
	q, _ := NewNaivePlane(ix, 11)
	if _, err := q.Update(geom.Pt(1, 1)); err == nil {
		t.Error("NaivePlane accepted k > n at update")
	}
}
