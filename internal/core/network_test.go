package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/netvor"
	"repro/internal/roadnet"
)

func buildNetwork(t testing.TB, nVerts, nSites int, seed int64) (*roadnet.Graph, *netvor.Diagram) {
	t.Helper()
	g, err := roadnet.RandomPlanarNetwork(nVerts, testBounds, 0.5, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	sites := rng.Perm(nVerts)[:nSites]
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	return g, d
}

// checkNetKNN compares a network kNN result against the diagram's cold
// full-network search (OracleKNNWithDistances) as sorted distance lists, so
// equidistant ties pass.
func checkNetKNN(t *testing.T, d *netvor.Diagram, pos roadnet.Position, got []int, k int) {
	t.Helper()
	_, want := d.OracleKNNWithDistances(pos, k)
	if len(got) != k || len(want) != k {
		t.Fatalf("at %+v: result has %d ids, oracle %d, want %d", pos, len(got), len(want), k)
	}
	dist := d.Graph().ShortestDistances(pos.Sources(d.Graph()), -1)
	gd := make([]float64, 0, k)
	seen := make(map[int]bool)
	for _, s := range got {
		if seen[s] || !d.IsSite(s) {
			t.Fatalf("at %+v: result %v repeats or invents site %d", pos, got, s)
		}
		seen[s] = true
		gd = append(gd, dist[s])
	}
	sort.Float64s(gd)
	for i := 0; i < k; i++ {
		if math.Abs(gd[i]-want[i]) > 1e-9*(want[i]+1) {
			t.Fatalf("at %+v: network kNN distance[%d] = %g, oracle says %g (result %v)", pos, i, gd[i], want[i], got)
		}
	}
}

func TestNewNetworkQueryValidation(t *testing.T) {
	_, d := buildNetwork(t, 60, 8, 1)
	if _, err := NewNetworkQuery(d, 0, 1.5); err == nil {
		t.Error("expected error for k=0")
	}
	for _, rho := range []float64{0.9, math.NaN(), math.Inf(1)} {
		if _, err := NewNetworkQuery(d, 2, rho); err == nil {
			t.Errorf("expected error for rho=%g", rho)
		}
	}
	if _, err := NewNetworkQuery(d, 9, 1.5); err == nil {
		t.Error("expected error for k > site count")
	}
}

func TestNetworkQueryRejectsBadPosition(t *testing.T) {
	_, d := buildNetwork(t, 60, 8, 2)
	q, err := NewNetworkQuery(d, 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(roadnet.Position{U: 0, V: 59, T: 0.5}); err == nil {
		t.Error("expected error for position on non-edge")
	}
	// A rejected position is not an update: nothing ran, so no counter moves
	// (Timestamps is the denominator of every per-update ratio) and the
	// answer of the last good update stands.
	good := roadnet.VertexPosition(7)
	if _, err := q.Update(good); err != nil {
		t.Fatal(err)
	}
	before, knn := *q.Metrics(), q.Current()
	for _, bad := range []roadnet.Position{
		{U: 0, V: 59, T: 0.5}, {U: -1, V: -1}, {U: 60, V: 60}, {U: 7, V: d.Graph().AdjacentVertices(7)[0], T: math.NaN()},
	} {
		if _, err := q.Update(bad); !errors.Is(err, ErrInvalidPosition) {
			t.Errorf("position %+v: %v, want ErrInvalidPosition", bad, err)
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

func TestNetworkQueryCorrectAlongRoute(t *testing.T) {
	g, d := buildNetwork(t, 300, 40, 3)
	for _, k := range []int{1, 3, 6} {
		for _, rho := range []float64{1.0, 1.6} {
			q, err := NewNetworkQuery(d, k, rho)
			if err != nil {
				t.Fatal(err)
			}
			route, err := roadnet.RandomWalkRoute(g, 0, 3000, int64(k)*7+int64(rho*10))
			if err != nil {
				t.Fatal(err)
			}
			for dist := 0.0; dist <= route.Length(); dist += 5 {
				pos := route.PositionAt(dist)
				got, err := q.Update(pos)
				if err != nil {
					t.Fatal(err)
				}
				checkNetKNN(t, d, pos, got, k)
			}
		}
	}
}

func TestNetworkQueryGridCorrect(t *testing.T) {
	g, err := roadnet.GridNetwork(12, 12, testBounds, 0.2, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sites := rng.Perm(g.NumVertices())[:30]
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewNetworkQuery(d, 5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 7, 4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	for dist := 0.0; dist <= route.Length(); dist += 8 {
		pos := route.PositionAt(dist)
		got, err := q.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		checkNetKNN(t, d, pos, got, 5)
	}
}

func TestNetworkQueryRecomputesRarely(t *testing.T) {
	g, d := buildNetwork(t, 500, 100, 7)
	q, err := NewNetworkQuery(d, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 3, 5000, 8)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for dist := 0.0; dist <= route.Length(); dist += 4 {
		if _, err := q.Update(route.PositionAt(dist)); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	m := q.Metrics()
	if m.Timestamps != steps {
		t.Fatalf("Timestamps = %d, want %d", m.Timestamps, steps)
	}
	if m.Recomputations*3 > steps {
		t.Errorf("network INS recomputed too often: %d in %d steps", m.Recomputations, steps)
	}
	if m.DijkstraRuns == 0 || m.EdgeRelaxations == 0 {
		t.Errorf("network cost counters empty: %+v", *m)
	}
}

func TestNetworkQueryStationary(t *testing.T) {
	_, d := buildNetwork(t, 200, 30, 9)
	q, err := NewNetworkQuery(d, 3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	pos := roadnet.VertexPosition(11)
	for i := 0; i < 30; i++ {
		if _, err := q.Update(pos); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Metrics().Recomputations; got != 1 {
		t.Errorf("stationary network query recomputed %d times, want 1", got)
	}
}

func TestNetworkSubnetworkSmaller(t *testing.T) {
	g, d := buildNetwork(t, 800, 120, 10)
	q, err := NewNetworkQuery(d, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(roadnet.VertexPosition(0)); err != nil {
		t.Fatal(err)
	}
	sub := q.Subnetwork()
	if sub == nil {
		t.Fatal("no subnetwork after first update")
	}
	if sub.G.NumVertices() >= g.NumVertices()/2 {
		t.Errorf("validation subnetwork has %d of %d vertices; expected a strong reduction",
			sub.G.NumVertices(), g.NumVertices())
	}
}

func TestNetworkINSDisjoint(t *testing.T) {
	g, d := buildNetwork(t, 300, 50, 11)
	q, err := NewNetworkQuery(d, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 2, 1500, 12)
	if err != nil {
		t.Fatal(err)
	}
	for dist := 0.0; dist <= route.Length(); dist += 10 {
		if _, err := q.Update(route.PositionAt(dist)); err != nil {
			t.Fatal(err)
		}
		inR := make(map[int]bool)
		for _, id := range q.Prefetched() {
			inR[id] = true
		}
		for _, id := range q.INS() {
			if inR[id] {
				t.Fatalf("INS member %d is in R", id)
			}
		}
	}
}
