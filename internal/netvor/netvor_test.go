package netvor

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// testNetwork builds a connected random planar network with nSites distinct
// site vertices.
func testNetwork(t testing.TB, nVerts, nSites int, seed int64) (*roadnet.Graph, []int) {
	t.Helper()
	g, err := roadnet.RandomPlanarNetwork(nVerts, testBounds, 0.5, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	perm := rng.Perm(nVerts)
	sites := append([]int(nil), perm[:nSites]...)
	sort.Ints(sites)
	return g, sites
}

func TestOwnersMatchBruteForce(t *testing.T) {
	g, sites := testNetwork(t, 80, 10, 1)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	fw := g.FloydWarshall()
	for v := 0; v < g.NumVertices(); v++ {
		owner, dist := d.Owner(v)
		best, bestD := -1, math.Inf(1)
		for _, s := range sites {
			if fw[v][s] < bestD || (fw[v][s] == bestD && s < best) {
				best, bestD = s, fw[v][s]
			}
		}
		if math.Abs(dist-bestD) > 1e-9*(bestD+1) {
			t.Fatalf("vertex %d: owner distance %g, want %g", v, dist, bestD)
		}
		// The owner must be *a* nearest site; ties break to the lower id.
		if owner != best && math.Abs(fw[v][owner]-bestD) > 1e-9*(bestD+1) {
			t.Fatalf("vertex %d: owner %d at %g, nearest is %d at %g",
				v, owner, fw[v][owner], best, bestD)
		}
	}
}

func TestSitesOwnThemselves(t *testing.T) {
	g, sites := testNetwork(t, 60, 8, 2)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		owner, dist := d.Owner(s)
		if owner != s || dist != 0 {
			t.Errorf("site %d owned by %d at %g", s, owner, dist)
		}
		if !d.IsSite(s) {
			t.Errorf("IsSite(%d) = false", s)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	g, _ := testNetwork(t, 20, 3, 3)
	if _, err := Build(g, nil); err == nil {
		t.Error("expected error for no sites")
	}
	if _, err := Build(g, []int{5, 5}); err == nil {
		t.Error("expected error for duplicate sites")
	}
	if _, err := Build(g, []int{999}); err == nil {
		t.Error("expected error for out-of-range site")
	}
}

func TestNeighborsSymmetricAndSorted(t *testing.T) {
	g, sites := testNetwork(t, 120, 15, 4)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		ns, err := d.Neighbors(s)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(ns) {
			t.Fatalf("neighbors of %d not sorted: %v", s, ns)
		}
		for _, u := range ns {
			if u == s {
				t.Fatalf("site %d is its own neighbor", s)
			}
			un, err := d.Neighbors(u)
			if err != nil {
				t.Fatal(err)
			}
			if !containsInt(un, s) {
				t.Fatalf("neighbor relation asymmetric: %d->%d", s, u)
			}
		}
	}
	if _, err := d.Neighbors(9999); err == nil {
		t.Error("expected error for non-site")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	g, sites := testNetwork(t, 100, 12, 5)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	fw := g.FloydWarshall()
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		v := rng.Intn(g.NumVertices())
		pos := roadnet.VertexPosition(v)
		for _, k := range []int{1, 3, 6} {
			got, gotD := d.KNNWithDistances(pos, k)
			want := bruteNetKNN(fw, sites, v, k)
			if len(got) != len(want) {
				t.Fatalf("KNN(%d,%d) size %d, want %d", v, k, len(got), len(want))
			}
			for i := range got {
				if math.Abs(gotD[i]-fw[v][want[i]]) > 1e-9*(fw[v][want[i]]+1) {
					t.Fatalf("KNN(%d,%d)[%d] = %d at %g, want dist %g",
						v, k, i, got[i], gotD[i], fw[v][want[i]])
				}
			}
		}
	}
}

func TestKNNFromEdgePosition(t *testing.T) {
	g, sites := testNetwork(t, 100, 12, 7)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an arbitrary edge and query from its middle; validate against
	// distances via the two endpoints.
	var eu, ev int
	var ew float64
	g.Edges(func(u, v int, w float64) {
		if eu == 0 && ev == 0 {
			eu, ev, ew = u, v, w
		}
	})
	pos := roadnet.Position{U: eu, V: ev, T: 0.4}
	ids, ds := d.KNNWithDistances(pos, 4)
	fw := g.FloydWarshall()
	for i, s := range ids {
		want := math.Min(0.4*ew+fw[eu][s], 0.6*ew+fw[ev][s])
		if math.Abs(ds[i]-want) > 1e-9*(want+1) {
			t.Fatalf("edge-position KNN[%d]=%d at %g, want %g", i, s, ds[i], want)
		}
	}
}

func bruteNetKNN(fw [][]float64, sites []int, v, k int) []int {
	s := append([]int(nil), sites...)
	sort.Slice(s, func(i, j int) bool {
		if fw[v][s[i]] != fw[v][s[j]] {
			return fw[v][s[i]] < fw[v][s[j]]
		}
		return s[i] < s[j]
	})
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

func TestINSSupersetOfKNNBoundaries(t *testing.T) {
	g, sites := testNetwork(t, 150, 20, 8)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	knn := d.KNN(roadnet.VertexPosition(sites[0]), 4)
	ins, err := d.INS(knn)
	if err != nil {
		t.Fatal(err)
	}
	inKNN := make(map[int]bool)
	for _, s := range knn {
		inKNN[s] = true
	}
	for _, s := range ins {
		if inKNN[s] {
			t.Fatalf("INS %v overlaps kNN %v", ins, knn)
		}
	}
	for _, s := range knn {
		ns, _ := d.Neighbors(s)
		for _, u := range ns {
			if !inKNN[u] && !containsInt(ins, u) {
				t.Fatalf("INS misses neighbor %d of kNN member %d", u, s)
			}
		}
	}
}

// TestTheorem2Soundness checks the statement of Theorem 2 directly: build
// the guard subnetwork for a kNN set computed at one position, move the
// query to other positions, and verify that whenever the kNN among the
// guard sites *on the subnetwork* still equals the original kNN set, the
// true kNN on the full network is also that set.
func TestTheorem2Soundness(t *testing.T) {
	g, sites := testNetwork(t, 200, 25, 9)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	const k = 3
	validations, agreements := 0, 0
	for trial := 0; trial < 60; trial++ {
		v0 := rng.Intn(g.NumVertices())
		pos0 := roadnet.VertexPosition(v0)
		knn := d.KNN(pos0, k)
		ins, err := d.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		guard := append(append([]int(nil), knn...), ins...)
		sub := d.Subnetwork(guard)

		// Probe from nearby vertices (simulating movement) and from the
		// original position itself.
		probes := []roadnet.Position{pos0}
		for _, u := range g.AdjacentVertices(v0) {
			probes = append(probes, roadnet.VertexPosition(u))
			probes = append(probes, roadnet.Position{U: v0, V: u, T: 0.5})
		}
		for _, pos := range probes {
			subKNN, _, _ := sub.KNNSites(pos, guard, k)
			validations++
			if !sameSet(subKNN, knn) {
				continue // theorem makes no claim; the processor recomputes
			}
			agreements++
			fullKNN := d.KNN(pos, k)
			if !sameSet(fullKNN, knn) {
				// Distance ties can legitimately produce a different set
				// of equal distance; verify it is a genuine violation.
				_, fullD := d.KNNWithDistances(pos, k+1)
				if len(fullD) > k && math.Abs(fullD[k-1]-fullD[k]) < 1e-9 {
					continue
				}
				t.Fatalf("Theorem 2 violated at %+v: sub says %v valid, full kNN is %v",
					pos, knn, fullKNN)
			}
		}
	}
	if agreements == 0 {
		t.Fatal("test never exercised the valid branch")
	}
	if validations == 0 {
		t.Fatal("no validations performed")
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestSubnetworkSmallerThanFull(t *testing.T) {
	g, sites := testNetwork(t, 400, 50, 11)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	knn := d.KNN(roadnet.VertexPosition(sites[3]), 3)
	ins, _ := d.INS(knn)
	sub := d.Subnetwork(append(append([]int(nil), knn...), ins...))
	if sub.G.NumVertices() >= g.NumVertices() {
		t.Errorf("subnetwork has %d vertices, full %d — no reduction",
			sub.G.NumVertices(), g.NumVertices())
	}
	if sub.G.NumEdges() == 0 {
		t.Error("subnetwork has no edges")
	}
}

func TestTranslateMissingPosition(t *testing.T) {
	g, sites := testNetwork(t, 100, 6, 12)
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subnetwork(sites[:2])
	// Find a vertex not in the subnetwork.
	for v := 0; v < g.NumVertices(); v++ {
		if _, ok := sub.ToSub[v]; !ok {
			if _, ok := sub.Translate(roadnet.VertexPosition(v)); ok {
				t.Fatalf("translated position at missing vertex %d", v)
			}
			return
		}
	}
	t.Skip("subnetwork covered the whole graph")
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// BenchmarkBuild times Build on a small random planar network and on the
// repository benchmark's network_engine shape: a 448x448 street grid over a
// 10000-wide square (200,704 vertices) with 30,000 sites.
func BenchmarkBuild(b *testing.B) {
	b.Run("planar=2000", func(b *testing.B) {
		g, err := roadnet.RandomPlanarNetwork(2000, testBounds, 0.5, 0.3, 13)
		if err != nil {
			b.Fatal(err)
		}
		benchBuild(b, g, rand.New(rand.NewSource(14)).Perm(2000)[:200])
	})
	b.Run("grid=448", func(b *testing.B) {
		g, err := workload.Network(448, geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000)), 1)
		if err != nil {
			b.Fatal(err)
		}
		sites, err := workload.NetworkSites(g, 30000, 2)
		if err != nil {
			b.Fatal(err)
		}
		benchBuild(b, g, sites)
	})
}

func benchBuild(b *testing.B, g *roadnet.Graph, sites []int) {
	g.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, sites); err != nil {
			b.Fatal(err)
		}
	}
}
