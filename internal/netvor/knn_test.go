package netvor

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// knnProbes returns a deterministic mix of vertex and on-edge positions
// covering the graph.
func knnProbes(g *roadnet.Graph, rng *rand.Rand, count int) []roadnet.Position {
	var probes []roadnet.Position
	for len(probes) < count {
		v := rng.Intn(g.NumVertices())
		if rng.Intn(2) == 0 {
			probes = append(probes, roadnet.VertexPosition(v))
			continue
		}
		nb := g.AdjacentVertices(v)
		if len(nb) == 0 {
			continue
		}
		u := nb[rng.Intn(len(nb))]
		probes = append(probes, roadnet.Position{U: v, V: u, T: 0.25 + 0.5*rng.Float64()})
	}
	return probes
}

// bruteKNN is the reference ranking: every reachable site by its distance in
// a full single-source run of roadnet's own Dijkstra, which shares no code
// with the search under test. Ties rank by site id.
func bruteKNN(d *Diagram, pos roadnet.Position) ([]int, []float64) {
	g := d.Graph()
	dist := g.ShortestDistances(pos.Sources(g), -1)
	var ids []int
	for _, s := range d.Sites() {
		if !math.IsInf(dist[s], 1) {
			ids = append(ids, s)
		}
	}
	slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(dist[a], dist[b]) })
	ds := make([]float64, len(ids))
	for i, s := range ids {
		ds[i] = dist[s]
	}
	return ids, ds
}

// checkKNNMatchesBruteForce compares the kNN search against bruteKNN for
// several k on every probe: the distance lists must be bit-identical, each
// reported site must sit at its reported distance, and where distances are
// distinct the ids must match position for position.
func checkKNNMatchesBruteForce(t *testing.T, d *Diagram, probes []roadnet.Position) {
	t.Helper()
	for pi, pos := range probes {
		all, allDS := bruteKNN(d, pos)
		for _, k := range []int{1, 3, d.Len(), d.Len() + 2} {
			got, gotDS := d.KNNWithDistances(pos, k)
			want, wantDS := all[:min(k, len(all))], allDS[:min(k, len(all))]
			if !slices.Equal(gotDS, wantDS) {
				t.Fatalf("probe %d k=%d: search found %v at %v, brute force %v at %v",
					pi, k, got, gotDS, want, wantDS)
			}
			for i, id := range got {
				if j := slices.Index(all, id); allDS[j] != gotDS[i] || slices.Index(got, id) != i {
					t.Fatalf("probe %d k=%d: hit %d = (%d, %g) is not a distinct site at that distance", pi, k, i, id, gotDS[i])
				}
				// The last hit may tie with a site beyond the cut.
				tied := (i > 0 && gotDS[i-1] == gotDS[i]) || i+1 == len(got) || gotDS[i+1] == gotDS[i]
				if !tied && id != want[i] {
					t.Fatalf("probe %d k=%d: search[%d] = %d, brute force %d", pi, k, i, id, want[i])
				}
			}
		}
	}
}

// TestKNNMatchesBruteForceUnderChurn: on randomized planar road networks
// with randomized site sets, the incremental expansion returns exactly what
// a full Dijkstra ranks first, before and after every step of a run of site
// inserts and removes.
func TestKNNMatchesBruteForceUnderChurn(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		g := diffGraph(t, 150+20*trial, int64(trial))
		perm := rng.Perm(g.NumVertices())
		sites := append([]int(nil), perm[:12]...)
		d, err := Build(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		probes := knnProbes(g, rng, 12)
		checkKNNMatchesBruteForce(t, d, probes)
		for step := 0; step < 10; step++ {
			if step%2 == 0 {
				if err := d.Insert(perm[12+step]); err != nil {
					t.Fatal(err)
				}
			} else {
				cur := d.Sites()
				if err := d.Remove(cur[rng.Intn(len(cur))]); err != nil {
					t.Fatal(err)
				}
			}
			checkKNNMatchesBruteForce(t, d, probes)
		}
	}
}

// TestKNNDisconnectedAndZeroWeight pins the two adversarial graph shapes
// the dense search state must not trip over: a second component the search
// cannot reach (it must stop at the component's site count, not at k) and
// zero-weight edges (equal-distance pops must still report every site at
// its true distance).
func TestKNNDisconnectedAndZeroWeight(t *testing.T) {
	g := roadnet.NewGraph()
	rng := rand.New(rand.NewSource(9))
	// Two disjoint 4x4 grids, the second with a sprinkling of zero-weight
	// edges (explicitly zero via AddEdgeWeight, which preserves them).
	var comp [2][]int
	for c := 0; c < 2; c++ {
		off := float64(c) * 500
		for i := 0; i < 16; i++ {
			comp[c] = append(comp[c], g.AddVertex(geom.Pt(float64(i%4)*10+off, float64(i/4)*10)))
		}
		for i := 0; i < 16; i++ {
			w := 0.0 // AddEdge: Euclidean
			if c == 1 && rng.Intn(3) == 0 {
				if i%4 < 3 {
					if err := g.AddEdgeWeight(comp[c][i], comp[c][i+1], 0); err != nil {
						t.Fatal(err)
					}
				}
				if i/4 < 3 {
					if err := g.AddEdgeWeight(comp[c][i], comp[c][i+4], 0); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if i%4 < 3 {
				if err := g.AddEdge(comp[c][i], comp[c][i+1], w); err != nil {
					t.Fatal(err)
				}
			}
			if i/4 < 3 {
				if err := g.AddEdge(comp[c][i], comp[c][i+4], w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sites := []int{comp[0][0], comp[0][15], comp[1][5], comp[1][10]}
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	probes := []roadnet.Position{
		roadnet.VertexPosition(comp[0][7]),
		roadnet.VertexPosition(comp[1][0]),
		{U: comp[0][1], V: comp[0][2], T: 0.5},
		{U: comp[1][14], V: comp[1][15], T: 0.3},
	}
	// k beyond the component's site count: the search must stop at the
	// component boundary and report only the reachable sites.
	checkKNNMatchesBruteForce(t, d, probes)
	if err := d.Remove(comp[1][5]); err != nil {
		t.Fatal(err)
	}
	// The replacement sits at distance 0 from the surviving site, joined to it
	// by a zero-length path: each owns its own vertex, both are reported, and
	// the insert-built labels are those of a fresh Build.
	fromSite := g.ShortestDistances([]roadnet.Source{{V: comp[1][10]}}, -1)
	repl := slices.IndexFunc(comp[1], func(v int) bool { return v != comp[1][10] && fromSite[v] == 0 })
	if repl < 0 {
		t.Fatal("no vertex at distance 0 from the surviving site")
	}
	for _, twin := range []int{comp[1][repl], comp[1][10]} {
		// Once as the higher id joining the lower, once the other way round.
		other := comp[1][repl] + comp[1][10] - twin
		if d.IsSite(twin) {
			if err := d.Remove(twin); err != nil {
				t.Fatal(err)
			}
			checkAgainstRebuild(t, twin, d, g, probes)
		}
		if err := d.Insert(twin); err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{twin, other} {
			if o, dist := d.Owner(s); !d.IsSite(s) || o != s || dist != 0 {
				t.Fatalf("after inserting %d: site %d has owner (%d, %g), IsSite %v", twin, s, o, dist, d.IsSite(s))
			}
		}
		if knn := d.KNN(roadnet.VertexPosition(twin), 2); !slices.Contains(knn, twin) || !slices.Contains(knn, other) {
			t.Fatalf("2NN at %d = %v, want both coincident sites %d and %d", twin, knn, twin, other)
		}
		checkAgainstRebuild(t, twin, d, g, probes)
		checkKNNMatchesBruteForce(t, d, probes)
	}
}

// subEdges canonicalizes a subnetwork's edge multiset in full-network ids.
func subEdges(t *testing.T, s *Subnetwork) [][3]float64 {
	t.Helper()
	var out [][3]float64
	c := s.G.CSR()
	for v := 0; v < s.G.NumVertices(); v++ {
		for e := c.Off[v]; e < c.Off[v+1]; e++ {
			u := int(c.To[e])
			if v > u {
				continue
			}
			a, b := float64(s.ToFull[v]), float64(s.ToFull[u])
			if a > b {
				a, b = b, a
			}
			out = append(out, [3]float64{a, b, c.W[e]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		if out[i][1] != out[j][1] {
			return out[i][1] < out[j][1]
		}
		return out[i][2] < out[j][2]
	})
	return out
}

// TestSubnetworkIntoReuseEquivalence proves the buffer-reusing extraction
// is indistinguishable from a fresh one across changing site sets: same
// vertex set, same edge multiset, and identical kNN answers.
func TestSubnetworkIntoReuseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := diffGraph(t, 250, 21)
	perm := rng.Perm(g.NumVertices())
	d, err := Build(g, perm[:20])
	if err != nil {
		t.Fatal(err)
	}
	var reused *Subnetwork
	var sc SearchScratch
	for round := 0; round < 8; round++ {
		sites := d.Sites()
		guard := append([]int(nil), sites[rng.Intn(4):4+rng.Intn(len(sites)-4)]...)
		reused = d.SubnetworkInto(guard, reused, &sc)
		fresh := d.Subnetwork(guard)

		wantV := append([]int(nil), fresh.ToFull...)
		gotV := append([]int(nil), reused.ToFull...)
		sort.Ints(wantV)
		sort.Ints(gotV)
		if !sameIntSlice(gotV, wantV) {
			t.Fatalf("round %d: vertex sets differ: %v vs %v", round, gotV, wantV)
		}
		if ge, we := subEdges(t, reused), subEdges(t, fresh); len(ge) != len(we) {
			t.Fatalf("round %d: edge counts differ: %d vs %d", round, len(ge), len(we))
		} else {
			for i := range ge {
				if ge[i] != we[i] {
					t.Fatalf("round %d: edge %d differs: %v vs %v", round, i, ge[i], we[i])
				}
			}
		}
		for _, full := range guard {
			pos := roadnet.VertexPosition(full)
			a, ads, _ := reused.KNNSites(pos, guard, 3)
			b, bds, _ := fresh.KNNSites(pos, guard, 3)
			if !sameIntSlice(a, b) {
				t.Fatalf("round %d: KNNSites(%d) = %v, fresh says %v", round, full, a, b)
			}
			for i := range ads {
				if ads[i] != bds[i] {
					t.Fatalf("round %d: KNNSites(%d) dist[%d] = %g, fresh says %g", round, full, i, ads[i], bds[i])
				}
			}
		}
		// Churn the diagram between rounds so extraction sees fresh cells.
		if err := d.Remove(sites[rng.Intn(len(sites))]); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(perm[20+round]); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkNetKNN is the full-network kNN search at the repository
// benchmark's shape — a 448x448 street grid with 30k sites (15 % of the
// vertices), 16 nearest sites from random vertices.
func BenchmarkNetKNN(b *testing.B) {
	g, err := roadnet.GridNetwork(448, 448, geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000)), 0.2, 0.3, 5)
	if err != nil {
		b.Fatal(err)
	}
	d, err := Build(g, rand.New(rand.NewSource(6)).Perm(g.NumVertices())[:30000])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var sc SearchScratch
	var ids []int
	var ds []float64
	relaxed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r int
		ids, ds, r = d.AppendKNN(roadnet.VertexPosition(rng.Intn(g.NumVertices())), 16, ids[:0], ds[:0], &sc)
		relaxed += r
	}
	b.ReportMetric(float64(relaxed)/float64(b.N), "relaxations/op")
}
