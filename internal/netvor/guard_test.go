package netvor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// guardCase is one network of the guard-search differential tests. generic
// says its weights are tie-free, so the filter and the materialized
// subgraph (which number vertices differently and break heap ties by vertex
// id) must agree hit for hit and relaxation for relaxation; with ties the
// comparison is on distances. island lists the vertices of the network's
// disconnected component, if it has one.
type guardCase struct {
	name    string
	d       *Diagram
	generic bool
	island  []int
}

// addIsland appends a disconnected path of n vertices with tie-free weights
// and returns its vertices.
func addIsland(t *testing.T, g *roadnet.Graph, n int, rng *rand.Rand) []int {
	t.Helper()
	var vs []int
	for i := 0; i < n; i++ {
		vs = append(vs, g.AddVertex(geom.Pt(5000+10*float64(i), 5000)))
		if i > 0 {
			if err := g.AddEdgeWeight(vs[i-1], vs[i], 5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return vs
}

func guardCases(t *testing.T) []guardCase {
	t.Helper()
	build := func(g *roadnet.Graph, rng *rand.Rand, density int, extra ...int) *Diagram {
		sites := append(rng.Perm(g.NumVertices())[:g.NumVertices()/density], extra...)
		slices.Sort(sites)
		d, err := Build(g, slices.Compact(sites))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var cases []guardCase

	rng := rand.New(rand.NewSource(41))
	grid, err := roadnet.GridNetwork(64, 64, testBounds, 0.2, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, guardCase{"grid64", build(grid, rng, 7), true, nil})

	planar := diffGraph(t, 1500, 43)
	island := addIsland(t, planar, 6, rng)
	cases = append(cases, guardCase{"planar+island", build(planar, rng, 10, island[1], island[4]), true, island})

	unit, err := roadnet.GridNetwork(64, 64, testBounds, 0, 0, 44)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, guardCase{"unitgrid64", build(unit, rng, 7), false, nil})

	// Explicit zero-weight shortcuts between vertices two hops apart.
	zero := diffGraph(t, 900, 45)
	for added := 0; added < 120; {
		u := rng.Intn(zero.NumVertices())
		nb := zero.AdjacentVertices(u)
		nb2 := zero.AdjacentVertices(nb[rng.Intn(len(nb))])
		if err := zero.AddEdgeWeight(u, nb2[rng.Intn(len(nb2))], 0); err == nil {
			added++
		}
	}
	island = addIsland(t, zero, 4, rng)
	cases = append(cases, guardCase{"zeroweight+island", build(zero, rng, 10, island[0]), false, island})
	return cases
}

// randomGuard returns the guard set R ∪ I(R) a query at a random position
// would hold, for a random k ∈ {1,5,10,20} and ρ ∈ {1,1.6}, and that k.
func randomGuard(t *testing.T, d *Diagram, rng *rand.Rand) (guard []int, k int) {
	t.Helper()
	k = []int{1, 5, 10, 20}[rng.Intn(4)]
	m := int([]float64{1, 1.6}[rng.Intn(2)] * float64(k))
	r := d.KNN(roadnet.VertexPosition(rng.Intn(d.Graph().NumVertices())), m)
	ins, err := d.INS(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(r, ins...), k
}

// guardProbes returns positions inside, on the rim of, and just outside the
// materialized subnetwork: vertices and mid-edge points of interior and
// ring edges, vertices one step beyond the ring, edges between two ring
// vertices (both endpoints in the subnetwork, the edge not), and edges
// leaving it.
func guardProbes(g *roadnet.Graph, sub *Subnetwork, rng *rand.Rand) []roadnet.Position {
	var probes []roadnet.Position
	edge := func(u, v int) roadnet.Position {
		return roadnet.Position{U: u, V: v, T: 0.05 + 0.9*rng.Float64()}
	}
	perm := rng.Perm(len(sub.ToFull))
	for _, sv := range perm[:min(len(perm), 24)] {
		v := sub.ToFull[sv]
		probes = append(probes, roadnet.VertexPosition(v))
		for _, u := range g.AdjacentVertices(v) {
			// In, across and out of the subnetwork alike, both orientations.
			probes = append(probes, edge(v, u), edge(u, v))
			if _, in := sub.ToSub[u]; !in {
				probes = append(probes, roadnet.VertexPosition(u))
			}
		}
	}
	// Degenerate fractions resolve to a vertex.
	v := sub.ToFull[perm[0]]
	if nb := g.AdjacentVertices(v); len(nb) > 0 {
		probes = append(probes, roadnet.Position{U: v, V: nb[0], T: 0}, roadnet.Position{U: nb[0], V: v, T: 1})
	}
	return probes
}

// pullHits drains up to m hits from a guard search, returning them with
// the relaxations spent.
func pullHits(s *GuardSearch, m int) (ids []int, ds []float64, relaxed int) {
	for len(ids) < m {
		site, dist, r, ok := s.Next()
		relaxed += r
		if !ok {
			break
		}
		ids = append(ids, site)
		ds = append(ds, dist)
	}
	return ids, ds, relaxed
}

// checkGuardSearch compares the filter search on d with plain Dijkstra on
// a materialized subnetwork (possibly extracted from an older version of
// the diagram) for every probe.
func checkGuardSearch(t *testing.T, name string, d *Diagram, sub *Subnetwork, guard []int, generic bool, probes []roadnet.Position, rng *rand.Rand, sc *SearchScratch) (served, refused int) {
	t.Helper()
	for _, pos := range probes {
		_, inSub := sub.Translate(pos)
		search, ok := d.BeginGuardSearch(pos, guard, sc)
		if ok != inSub {
			t.Fatalf("%s: BeginGuardSearch(%+v) = %v, Translate says %v", name, pos, ok, inSub)
		}
		if !ok {
			refused++
			continue
		}
		served++
		m := 1 + rng.Intn(len(guard)+1) // up to one more than there are
		ids, ds, relaxed := pullHits(&search, m)
		wantIDs, wantDS, wantRelaxed := sub.KNNSites(pos, guard, m)
		if !slices.Equal(ds, wantDS) {
			t.Fatalf("%s: %+v m=%d: distances %v, materialized subnetwork says %v", name, pos, m, ds, wantDS)
		}
		if generic {
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("%s: %+v m=%d: hits %v, materialized subnetwork says %v", name, pos, m, ids, wantIDs)
			}
			if relaxed != wantRelaxed {
				t.Fatalf("%s: %+v m=%d: %d relaxations, materialized subnetwork says %d", name, pos, m, relaxed, wantRelaxed)
			}
			continue
		}
		// Ties may reorder hits: every hit must carry the distance the
		// subgraph assigns to that site.
		allIDs, allDS, _ := sub.KNNSites(pos, guard, len(guard))
		for i, id := range ids {
			j := slices.Index(allIDs, id)
			if j < 0 || allDS[j] != ds[i] || slices.Index(ids, id) != i {
				t.Fatalf("%s: %+v m=%d: hit %d = (%d, %g) is not a distinct guard site at that subgraph distance", name, pos, m, i, id, ds[i])
			}
		}
	}
	return served, refused
}

// TestGuardSearchMatchesMaterializedSubnetwork is the differential test of
// Theorem 2 as a filter: on a jittered grid, a random planar network with a
// disconnected component, a unit grid (ties) and a network with explicit
// zero-weight edges, for guard sets of random k and ρ and for positions at
// vertices, mid-edge, on ring edges and just outside, the filter search on
// the shared CSR serves exactly the positions Translate accepts and returns
// what plain Dijkstra returns on the materialized subgraph — same sites,
// bit-identical distances, equal relaxation counts — and InSubnetwork is
// ToSub membership for every vertex.
func TestGuardSearchMatchesMaterializedSubnetwork(t *testing.T) {
	var sc SearchScratch // one scratch across graphs of different sizes
	for _, tc := range guardCases(t) {
		rng := rand.New(rand.NewSource(7))
		g := tc.d.Graph()
		served, refused := 0, 0
		for trial := 0; trial < 12; trial++ {
			guard, _ := randomGuard(t, tc.d, rng)
			sub := tc.d.Subnetwork(guard)
			s, r := checkGuardSearch(t, tc.name, tc.d, sub, guard, tc.generic, guardProbes(g, sub, rng), rng, &sc)
			served, refused = served+s, refused+r
			for v := 0; v < g.NumVertices(); v++ {
				_, want := sub.ToSub[v]
				if got := tc.d.InSubnetwork(guard, v, &sc); got != want {
					t.Fatalf("%s: InSubnetwork(%d) = %v, ToSub membership %v", tc.name, v, got, want)
				}
			}
		}
		if served == 0 || refused == 0 {
			t.Fatalf("%s: %d probes served, %d refused; want both", tc.name, served, refused)
		}
	}
}

// TestGuardSearchWidenMatchesColdSearch is the differential test of the
// continuation: a guard search pulled for a random number of hits — none,
// some, or until its subnetwork runs out — then widened and pulled until m
// sites are held (the hits Widen calls exact, then fresh ones) holds what a
// cold full-network search for m sites returns. On tie-free networks that
// is the same ids and bit-identical distances, also against a brute-force
// ranking, and the continuation never relaxes more edges than the cold
// search; with ties, the same distance list over distinct sites that sit at
// those distances. The guard sets include ones that put the ring right
// around the start (k = 1, ρ = 1, and a lone site of a two-site island), so
// the verdict often comes after the ring has been settled.
func TestGuardSearchWidenMatchesColdSearch(t *testing.T) {
	var sc, coldSc SearchScratch
	for _, tc := range guardCases(t) {
		rng := rand.New(rand.NewSource(19))
		g := tc.d.Graph()
		// Coverage: continuations that dropped hits settled past the ring,
		// that began before any ring vertex was settled, that began from an
		// exhausted subnetwork, and that kept a hit still pending.
		var dropped, unringed, exhausted, pendKept int
		check := func(guard []int, pos roadnet.Position) {
			search, ok := tc.d.BeginGuardSearch(pos, guard, &sc)
			if !ok {
				return
			}
			pull := rng.Intn(len(guard) + 2) // up to one more than there are
			ids, ds, _ := pullHits(&search, pull)
			ringed, pending := search.ringed, search.pend >= 0
			exact := search.Widen()
			switch {
			case exact > len(ids) || (!ringed && exact < len(ids)):
				t.Fatalf("%s: %+v: %d of %d hits exact, ring settled: %v", tc.name, pos, exact, len(ids), ringed)
			case exact < len(ids):
				dropped++
			case !ringed:
				unringed++
			}
			if len(ids) < pull {
				exhausted++
			}
			if pending && exact == len(ids) {
				pendKept++
			}
			m := 1 + rng.Intn(len(guard)+4)
			ids, ds = ids[:min(exact, m)], ds[:min(exact, m)]
			more, moreDS, relaxed := pullHits(&search, m-len(ids))
			ids, ds = append(ids, more...), append(ds, moreDS...)

			wantIDs, wantDS, coldRelaxed := tc.d.AppendKNN(pos, m, nil, nil, &coldSc)
			if !slices.Equal(ds, wantDS) {
				t.Fatalf("%s: %+v pull=%d exact=%d m=%d: continued search holds %v at %v, cold search %v at %v",
					tc.name, pos, pull, exact, m, ids, ds, wantIDs, wantDS)
			}
			if tc.generic && !slices.Equal(ids, wantIDs) {
				t.Fatalf("%s: %+v pull=%d exact=%d m=%d: continued search holds %v, cold search %v",
					tc.name, pos, pull, exact, m, ids, wantIDs)
			}
			if rng.Intn(8) == 0 { // a full Dijkstra per probe is the slow part
				all, allDS := bruteKNN(tc.d, pos)
				for i, id := range ids {
					if j := slices.Index(all, id); j < 0 || allDS[j] != ds[i] || slices.Index(ids, id) != i {
						t.Fatalf("%s: %+v pull=%d exact=%d m=%d: entry %d = (%d, %g) is not a distinct site at that distance",
							tc.name, pos, pull, exact, m, i, id, ds[i])
					}
				}
				if tc.generic && !slices.Equal(ids, all[:len(ids)]) {
					t.Fatalf("%s: %+v pull=%d exact=%d m=%d: continued search holds %v, brute force %v",
						tc.name, pos, pull, exact, m, ids, all[:len(ids)])
				}
			}
			if tc.generic && relaxed > coldRelaxed {
				t.Fatalf("%s: %+v pull=%d exact=%d m=%d: continuation relaxed %d edges, a cold search %d",
					tc.name, pos, pull, exact, m, relaxed, coldRelaxed)
			}
		}
		for trial := 0; trial < 8; trial++ {
			guard, _ := randomGuard(t, tc.d, rng)
			if trial%4 == 3 { // k = 1, ρ = 1: the ring hugs the start
				nn := tc.d.KNN(roadnet.VertexPosition(rng.Intn(g.NumVertices())), 1)
				ins, err := tc.d.INS(nn)
				if err != nil {
					t.Fatal(err)
				}
				guard = append(nn, ins...)
			}
			for _, pos := range guardProbes(g, tc.d.Subnetwork(guard), rng) {
				check(guard, pos)
			}
		}
		// The island: guarded whole it has no ring and exhausts into nothing;
		// guarded by one site of two the ring is on the island and the
		// continuation must find the other.
		if tc.island != nil {
			o, _ := tc.d.Owner(tc.island[0])
			nb, err := tc.d.Neighbors(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, guard := range [][]int{append([]int{o}, nb...), {o}} {
				for rep := 0; rep < 10; rep++ {
					for _, pos := range guardProbes(g, tc.d.Subnetwork(guard), rng) {
						check(guard, pos)
					}
				}
			}
		}
		if dropped == 0 || unringed == 0 || exhausted == 0 || pendKept == 0 {
			t.Fatalf("%s: %d continuations dropped hits, %d began inside the ring, %d began exhausted, %d kept a pending hit; want all four",
				tc.name, dropped, unringed, exhausted, pendKept)
		}
	}
}

// TestGuardSearchExhaustsOnIsland: a guard set confined to a disconnected
// component runs out of subnetwork instead of leaking into the mainland,
// and stays exhausted.
func TestGuardSearchExhaustsOnIsland(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := diffGraph(t, 200, 5)
	island := addIsland(t, g, 5, rng)
	d, err := Build(g, append(rng.Perm(200)[:20], island[0], island[3]))
	if err != nil {
		t.Fatal(err)
	}
	var sc SearchScratch
	guard := []int{island[0], island[3]}
	search, ok := d.BeginGuardSearch(roadnet.Position{U: island[1], V: island[2], T: 0.5}, guard, &sc)
	if !ok {
		t.Fatal("position between the island's two sites refused")
	}
	ids, _, _ := pullHits(&search, 5)
	slices.Sort(ids)
	if !slices.Equal(ids, guard) {
		t.Fatalf("island search found %v, want %v", ids, guard)
	}
	for i := 0; i < 2; i++ {
		if _, _, relaxed, ok := search.Next(); ok || relaxed != 0 {
			t.Fatalf("exhausted search returned (relaxed %d, ok %v)", relaxed, ok)
		}
	}
	if _, ok := d.BeginGuardSearch(roadnet.VertexPosition(0), guard, &sc); ok {
		t.Fatal("mainland position served by an island guard set")
	}
}

// TestGuardSearchResume: pulling k hits and then continuing to m yields the
// prefix and the total relaxations of one m-hit search, and the cost after
// the first k is that of a k-hit search — the reported hit is not expanded
// until the search is resumed.
func TestGuardSearchResume(t *testing.T) {
	tc := guardCases(t)[0]
	rng := rand.New(rand.NewSource(11))
	var sc SearchScratch
	for trial := 0; trial < 40; trial++ {
		guard, k := randomGuard(t, tc.d, rng)
		sub := tc.d.Subnetwork(guard)
		pos := roadnet.VertexPosition(sub.ToFull[rng.Intn(len(sub.ToFull))])
		m := k + rng.Intn(len(guard)-k+1)

		search, ok := tc.d.BeginGuardSearch(pos, guard, &sc)
		if !ok {
			t.Fatalf("trial %d: subnetwork vertex refused", trial)
		}
		ids, ds, relaxed := pullHits(&search, k)
		if _, _, want := sub.KNNSites(pos, guard, k); relaxed != want {
			t.Fatalf("trial %d: %d relaxations for the first %d hits, a %d-hit search takes %d", trial, relaxed, k, k, want)
		}
		moreIDs, moreDS, moreRelaxed := pullHits(&search, m-k)
		ids, ds, relaxed = append(ids, moreIDs...), append(ds, moreDS...), relaxed+moreRelaxed

		fresh, ok := tc.d.BeginGuardSearch(pos, guard, &sc)
		if !ok {
			t.Fatal("second begin refused")
		}
		wantIDs, wantDS, wantRelaxed := pullHits(&fresh, m)
		if !slices.Equal(ids, wantIDs) || !slices.Equal(ds, wantDS) || relaxed != wantRelaxed {
			t.Fatalf("trial %d: resumed %d+%d search = (%v, %v, %d relaxations), fresh %d-hit search (%v, %v, %d)",
				trial, k, m-k, ids, ds, relaxed, m, wantIDs, wantDS, wantRelaxed)
		}
		if _, _, oracle := sub.KNNSites(pos, guard, m); relaxed != oracle {
			t.Fatalf("trial %d: %d relaxations in total, the materialized subnetwork takes %d", trial, relaxed, oracle)
		}
	}
}

// TestGuardSearchAcrossUnaffectingMutations is why a re-pinned session may
// keep its guard set: after Branch and any run of site mutations that the
// query layer's affectedness rule lets through (an inserted site outside
// the old subnetwork with no guard member among its neighbors; a removed
// site outside the guard set with none among its neighbors), the filter on
// the NEW version's labels is the subgraph extracted from the OLD one.
func TestGuardSearchAcrossUnaffectingMutations(t *testing.T) {
	for _, tc := range guardCases(t)[:2] {
		rng := rand.New(rand.NewSource(13))
		g := tc.d.Graph()
		var sc SearchScratch
		intersects := func(a, b []int) bool {
			return slices.ContainsFunc(a, func(x int) bool { return slices.Contains(b, x) })
		}
		for trial := 0; trial < 6; trial++ {
			old := tc.d
			guard, _ := randomGuard(t, old, rng)
			oldSub := old.Subnetwork(guard)
			cur, kept := old, 0
			for step := 0; step < 60; step++ {
				next := cur.Branch()
				affecting := false
				if rng.Intn(2) == 0 {
					v := rng.Intn(g.NumVertices())
					for next.IsSite(v) {
						v = rng.Intn(g.NumVertices())
					}
					if err := next.Insert(v); err != nil {
						t.Fatal(err)
					}
					nb, _ := next.Neighbors(v)
					affecting = intersects(nb, guard) || old.InSubnetwork(guard, v, &sc)
				} else {
					s := next.Sites()[rng.Intn(next.Len())]
					nb, _ := next.Neighbors(s)
					affecting = slices.Contains(guard, s) || intersects(nb, guard)
					if err := next.Remove(s); err != nil {
						t.Fatal(err)
					}
				}
				if affecting {
					continue // the session would recompute; drop the branch
				}
				cur = next
				kept++
			}
			if kept < 10 {
				t.Fatalf("%s trial %d: only %d unaffecting mutations", tc.name, trial, kept)
			}
			checkGuardSearch(t, tc.name, cur, oldSub, guard, tc.generic, guardProbes(g, oldSub, rng), rng, &sc)
			for v := 0; v < g.NumVertices(); v++ {
				_, want := oldSub.ToSub[v]
				if got := cur.InSubnetwork(guard, v, &sc); got != want {
					t.Fatalf("%s trial %d: InSubnetwork(%d) = %v on the new version, old ToSub membership %v", tc.name, trial, v, got, want)
				}
			}
		}
	}
}

// TestGuardSearchAllocFree pins the serving contract: with a warmed
// scratch, beginning a guard search and draining it allocates nothing.
func TestGuardSearchAllocFree(t *testing.T) {
	tc := guardCases(t)[0]
	rng := rand.New(rand.NewSource(17))
	guard, _ := randomGuard(t, tc.d, rng)
	pos := roadnet.VertexPosition(guard[0])
	var sc SearchScratch
	hits, total := 0, math.Inf(1)
	run := func() {
		search, ok := tc.d.BeginGuardSearch(pos, guard, &sc)
		if !ok {
			t.Fatal("guard site refused")
		}
		hits, total = 0, 0
		for {
			_, dist, _, ok := search.Next()
			if !ok {
				break
			}
			hits++
			total += dist
		}
	}
	run() // warm
	if hits != len(guard) {
		t.Fatalf("drained %d hits of %d guard sites", hits, len(guard))
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("guard search allocates %.1f per run, want 0", allocs)
	}
	_ = total
}
