package netvor

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// altProbes returns a deterministic mix of vertex and on-edge positions
// covering the graph.
func altProbes(g *roadnet.Graph, rng *rand.Rand, count int) []roadnet.Position {
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

// checkALTMatchesOracle compares the ALT-pruned kNN against the plain
// Dijkstra oracle for several k on every probe: ids AND distances must be
// bit-identical (both searches settle ties by vertex id, so even the
// output order matches).
func checkALTMatchesOracle(t *testing.T, d *Diagram, probes []roadnet.Position) {
	t.Helper()
	for pi, pos := range probes {
		for _, k := range []int{1, 3, d.Len(), d.Len() + 2} {
			got, gotDS := d.KNNWithDistances(pos, k)
			want, wantDS := d.OracleKNNWithDistances(pos, k)
			if len(got) != len(want) {
				t.Fatalf("probe %d k=%d: ALT found %d sites %v, oracle %d %v",
					pi, k, len(got), got, len(want), want)
			}
			for i := range got {
				if got[i] != want[i] || gotDS[i] != wantDS[i] {
					t.Fatalf("probe %d k=%d: ALT[%d] = (%d, %g), oracle (%d, %g)",
						pi, k, i, got[i], gotDS[i], want[i], wantDS[i])
				}
			}
		}
	}
}

// TestALTKNNMatchesOracleRandom is the headline differential test: on
// randomized planar road networks with randomized site sets, the
// ALT-pruned expansion must return exactly what unpruned Dijkstra
// returns, through site churn that exercises both the widened-projection
// (Insert) and stale-projection (Remove) paths.
func TestALTKNNMatchesOracleRandom(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		g := diffGraph(t, 150+20*trial, int64(trial))
		perm := rng.Perm(g.NumVertices())
		sites := append([]int(nil), perm[:12]...)
		d, err := Build(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		probes := altProbes(g, rng, 12)
		checkALTMatchesOracle(t, d, probes)
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
			checkALTMatchesOracle(t, d, probes)
		}
	}
}

// TestALTKNNDisconnectedAndZeroWeight pins the two adversarial graph
// shapes the dense/ALT machinery must not trip over: components no
// landmark subset can see across (Inf distances must prune, not poison,
// the bound) and zero-weight edges (equal-key pops must still settle in
// oracle order).
func TestALTKNNDisconnectedAndZeroWeight(t *testing.T) {
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
	// component boundary and report only the reachable sites, like the
	// oracle does.
	checkALTMatchesOracle(t, d, probes)
	if err := d.Remove(comp[1][5]); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(comp[1][6]); err != nil {
		t.Fatal(err)
	}
	checkALTMatchesOracle(t, d, probes)
}

// TestFrozenProjectionSafety pins the epoch-staleness contract: a frozen
// (conservatively wide) projection from an earlier site epoch must never
// change an answer — only how hard the search prunes — and the lazy
// rebuild must fire exactly when a Remove leaves the projection inexact.
func TestFrozenProjectionSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := diffGraph(t, 200, 5)
	perm := rng.Perm(g.NumVertices())
	d, err := Build(g, perm[:16])
	if err != nil {
		t.Fatal(err)
	}
	probes := altProbes(g, rng, 10)

	// Capture the epoch-0 projection, then shrink the site set. The old
	// projection is over a superset of the surviving sites — admissible by
	// the Project contract, just weaker.
	frozen := d.altProj()
	for i := 0; i < 4; i++ {
		if err := d.Remove(d.Sites()[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze: force the stale superset projection in as if it were
	// current, suppressing the lazy rebuild.
	d.proj.Store(&siteProj{lo: frozen.lo, hi: frozen.hi, exact: true})
	_, rebuilds0 := d.ALTStats()
	checkALTMatchesOracle(t, d, probes)
	if _, r := d.ALTStats(); r != rebuilds0 {
		t.Fatalf("frozen projection rebuilt anyway (%d -> %d)", rebuilds0, r)
	}

	// Thaw: flag it stale; the next pruned query rebuilds exactly once and
	// the answers stay identical.
	d.proj.Store(&siteProj{lo: frozen.lo, hi: frozen.hi, exact: false})
	checkALTMatchesOracle(t, d, probes)
	if _, r := d.ALTStats(); r != rebuilds0+1 {
		t.Fatalf("stale projection rebuilt %d times, want exactly 1", r-rebuilds0)
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

// BenchmarkNetKNN prices the ALT bound on the full-network recompute
// search at the repository benchmark's shape — a 448x448 street grid with
// 30k sites (15 % of the vertices), 16 nearest sites from random vertices —
// against the same search with the bound off. At this site density the
// targets surround every start and the bound has nothing to prune.
func BenchmarkNetKNN(b *testing.B) {
	g, err := roadnet.GridNetwork(448, 448, geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000)), 0.2, 0.3, 5)
	if err != nil {
		b.Fatal(err)
	}
	d, err := Build(g, rand.New(rand.NewSource(6)).Perm(g.NumVertices())[:30000])
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		alt  bool
	}{{"alt", true}, {"plain", false}} {
		b.Run(mode.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			var sc SearchScratch
			var ids []int
			var ds []float64
			relaxed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var r int
				ids, ds, r = d.appendKNN(roadnet.VertexPosition(rng.Intn(g.NumVertices())), 16, ids[:0], ds[:0], &sc, mode.alt)
				relaxed += r
			}
			b.ReportMetric(float64(relaxed)/float64(b.N), "relaxations/op")
		})
	}
}
