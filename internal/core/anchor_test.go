package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// anchorDistance is the network distance the anchor's tables give site s at
// fraction t of the anchored edge (+Inf when neither table holds it).
func anchorDistance(a *edgeAnchor, t float64, s int) float64 {
	d := math.Inf(1)
	for e, off := range [2]float64{t * a.w, (1 - t) * a.w} {
		if j := slices.Index(a.end[e].site, int32(s)); j >= 0 {
			d = min(d, off+a.end[e].dist[j])
		}
	}
	return d
}

func nearly(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(math.Abs(b)+1) }

// freshAnchor arms a new session's anchor on edge (u, v) of d.
func freshAnchor(t *testing.T, d *netvor.Diagram, k int, rho float64, u, v int) edgeAnchor {
	t.Helper()
	q, err := NewNetworkQuery(d, k, rho)
	if err != nil {
		t.Fatal(err)
	}
	mid := roadnet.Position{U: u, V: v, T: 0.5}
	if q.anchorAt(mid, mid); !q.anchor.armed || q.Metrics().AnchorBuilds != 2 {
		t.Fatalf("no anchor on edge (%d,%d): %v", u, v, q.Metrics())
	}
	return q.anchor
}

// sameTables reports whether two anchors on one edge hold bit-identical tables.
func sameTables(a, b *edgeAnchor) bool {
	for e := range a.end {
		if !slices.Equal(a.end[e].site, b.end[e].site) || !slices.Equal(a.end[e].dist, b.end[e].dist) {
			return false
		}
	}
	return a.u == b.u && a.v == b.v && a.w == b.w
}

// checkRepin re-pins q alone, ahead of the Update that would, so that what the
// re-pin does to an armed anchor shows: one it keeps must hold the tables a
// session arming on the new snapshot d pins, bit for bit. It reports whether
// an anchor was kept or dropped and, when dropped, whether the tables had
// changed.
func checkRepin(t *testing.T, q *netOnStore, d *netvor.Diagram) (kept, dropped, changed bool) {
	t.Helper()
	armed, epoch := q.anchor.armed, q.Epoch()
	q.Sync()
	if !armed || q.Epoch() == epoch {
		return false, false, false
	}
	fresh := freshAnchor(t, d, q.k, q.rho, q.anchor.u, q.anchor.v)
	same := sameTables(&q.anchor, &fresh)
	if q.anchor.armed && !same {
		t.Fatalf("the re-pin to epoch %d kept an anchor on (%d,%d) with tables %+v, a new session pins %+v",
			q.Epoch(), q.anchor.u, q.anchor.v, q.anchor.end, fresh.end)
	}
	return q.anchor.armed, !q.anchor.armed, !same
}

// anchorWalkPositions lays positions along route, advancing by the step
// pattern (fractions of cell, repeated; negative steps backtrack). To cover
// every way a client can name a place, each third position is given in the
// reversed orientation (V, U, 1−T) and, with snap, now and then one is moved
// onto the nearer endpoint of its edge, as T = 0 or 1 or as a vertex position.
func anchorWalkPositions(route *roadnet.Route, cell float64, steps []float64, n int, snap bool) []roadnet.Position {
	out := make([]roadnet.Position, 0, n)
	at := 0.0
	for i := 0; i < n; i++ {
		at = min(max(at+steps[i%len(steps)]*cell, 0), route.Length())
		pos := route.PositionAt(at)
		if pos.U != pos.V {
			if snap && i%17 == 5 {
				pos.T = math.Round(pos.T)
				if i%34 == 5 {
					v, _ := pos.AtVertex()
					pos = roadnet.VertexPosition(v)
				}
			}
			if i%3 == 1 && pos.U != pos.V {
				pos = roadnet.Position{U: pos.V, V: pos.U, T: 1 - pos.T}
			}
		}
		out = append(out, pos)
	}
	return out
}

// tablesTaken is how many endpoint tables the anchor took between two counter
// readings: those searched for and those the table cache served.
func tablesTaken(before, after metrics.Counters) int {
	return after.AnchorBuilds - before.AnchorBuilds + after.AnchorTableHits - before.AnchorTableHits
}

// checkAnchorCounts checks the search-count contract of the Update at pos that
// took q's counters on from before: at most two tables taken, built or served
// from the cache, one search per table built and one more unless the tables
// answered — the anchor, where the update left it, covers pos — and
// AnchoredValidations counting exactly the validations the tables answered
// without a recomputation. It reports whether they answered.
func checkAnchorCounts(t testing.TB, q *NetworkQuery, pos roadnet.Position, before metrics.Counters) (answered bool) {
	t.Helper()
	m := q.Metrics()
	_, on := along(q.anchor.u, q.anchor.v, pos)
	answered = q.anchor.armed && on
	built := m.AnchorBuilds - before.AnchorBuilds
	want := built + 1
	if answered {
		want = built
	}
	if runs := m.DijkstraRuns - before.DijkstraRuns; runs != want || tablesTaken(before, *m) > 2 {
		t.Fatalf("at %+v: began %d searches, want %d (tables answered %v, tables built %d, served from the cache %d)",
			pos, runs, want, answered, built, m.AnchorTableHits-before.AnchorTableHits)
	}
	served := 0
	if answered && m.Validations > before.Validations && m.Recomputations == before.Recomputations {
		served = 1
	}
	if got := m.AnchoredValidations - before.AnchoredValidations; got != served {
		t.Fatalf("at %+v: AnchoredValidations +%d, want +%d (tables answered %v, recomputations +%d)",
			pos, got, served, answered, m.Recomputations-before.Recomputations)
	}
	return answered
}

// anchorWalkStats is what one differential walk saw.
type anchorWalkStats struct {
	updates, served, builds, carries, recomputes int

	// Recomputations read from the tables, with no search.
	tableRecomputes int

	// Updates that re-pinned to a newer snapshot with the anchor armed: the
	// re-pin kept it, or dropped it.
	keptRepin, droppedRepin int
}

// runAnchorWalk drives two sessions over the same positions and the same
// diagram: q, and a control that is knocked off its edge before every update
// — its anchor dropped and its last position forgotten — so that it never
// arms and every update is today's search. mutate, when set, changes the
// diagram before update i. After every update the answer must be the
// full-network brute-force kNN; one the tables answered must be what the
// full-network search returns, in its order, with the tables' distances equal
// to the search's, and a recomputation read from them must leave R the search's
// M nearest; a re-pin that keeps the anchor must leave it the tables a new
// session would pin (checkRepin); and every update begins the searches its
// class says: one per table built, and one more unless the tables answer.
// With exact (no equidistant sites, so verdicts cannot depend on a tie order)
// the two sessions must agree update by update on the answer, its order, and
// the recomputations and objects shipped.
func runAnchorWalk(t *testing.T, q, ctl *netOnStore, diagram func() *netvor.Diagram, positions []roadnet.Position, mutate func(i int, pos roadnet.Position), exact bool) anchorWalkStats {
	t.Helper()
	var st anchorWalkStats
	k := q.K()
	for i, pos := range positions {
		if mutate != nil {
			mutate(i, pos)
		}
		d := diagram()
		switch kept, dropped, _ := checkRepin(t, q, d); {
		case kept:
			st.keptRepin++
		case dropped:
			st.droppedRepin++
		}
		before := *q.Metrics()
		got, err := q.Update(pos)
		if err != nil {
			t.Fatalf("update %d at %+v: %v", i, pos, err)
		}
		knn := slices.Clone(got)
		m := *q.Metrics()
		served := m.AnchoredValidations - before.AnchoredValidations
		recomputed := m.Recomputations - before.Recomputations
		answered := checkAnchorCounts(t, q.NetworkQuery, pos, before)
		st.updates++
		st.served += served
		st.recomputes += recomputed
		switch tablesTaken(before, m) {
		case 1:
			st.carries++
		case 2:
			st.builds++
		}

		checkNetKNN(t, d, pos, knn, k)
		if answered {
			a := &q.anchor
			tt, _ := along(a.u, a.v, pos)
			ids, ds := d.KNNWithDistances(pos, k)
			if exact && !slices.Equal(ids, knn) {
				t.Fatalf("update %d at %+v: tables say %v, the search %v", i, pos, knn, ids)
			}
			for j, s := range knn {
				if ad := anchorDistance(a, tt, s); !nearly(ad, ds[j]) {
					t.Fatalf("update %d at %+v: tables put #%d (site %d) at %g, the search at %g", i, pos, j, s, ad, ds[j])
				}
			}
			if recomputed == 1 {
				st.tableRecomputes++
				r := q.Prefetched()
				if ids := d.KNN(pos, len(r)); exact && !slices.Equal(ids, r) {
					t.Fatalf("update %d at %+v: recomputed R = %v from the tables, the search finds %v", i, pos, r, ids)
				}
			}
		}

		ctl.anchor.armed = false
		ctl.last = roadnet.Position{U: -1, V: -1}
		cb := *ctl.Metrics()
		ctlKNN, err := ctl.Update(pos)
		if err != nil {
			t.Fatalf("control update %d at %+v: %v", i, pos, err)
		}
		if !exact {
			continue
		}
		cm := ctl.Metrics()
		if !slices.Equal(knn, ctlKNN) {
			t.Fatalf("update %d at %+v: kNN %v, control %v", i, pos, knn, ctlKNN)
		}
		if cr, cs := cm.Recomputations-cb.Recomputations, cm.ObjectsShipped-cb.ObjectsShipped; cr != recomputed || cs != m.ObjectsShipped-before.ObjectsShipped {
			t.Fatalf("update %d at %+v: %d recomputations shipping %d, control %d shipping %d",
				i, pos, recomputed, m.ObjectsShipped-before.ObjectsShipped, cr, cs)
		}
	}
	if cm := ctl.Metrics(); cm.AnchorBuilds != 0 || cm.AnchoredValidations != 0 {
		t.Fatalf("the control armed: %v", cm)
	}
	if exact {
		if m, cm := q.Metrics(), ctl.Metrics(); m.Recomputations != cm.Recomputations || m.ObjectsShipped != cm.ObjectsShipped {
			t.Fatalf("totals: %d recomputations shipping %d, control %d shipping %d",
				m.Recomputations, m.ObjectsShipped, cm.Recomputations, cm.ObjectsShipped)
		}
	}
	return st
}

// TestNetworkAnchorWalksMatchOracle: crawling (0.1 edge per update),
// striding (0.7) and mixed walks — stops, backtracking across vertices,
// reversed orientations, positions exactly on vertices — over an index.Store
// whose sites churn, far from the session (re-pins that keep the anchor) and
// right under it (re-pins that drop it). Every walk, the stride too, arms,
// carries, is served and recomputes from its tables.
func TestNetworkAnchorWalksMatchOracle(t *testing.T) {
	const side = 28
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	cell := bounds.Width() / (side - 1)
	g, err := roadnet.GridNetwork(side, side, bounds, 0.2, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sites := rand.New(rand.NewSource(8)).Perm(g.NumVertices())[:g.NumVertices()*15/100]
	walks := []struct {
		name  string
		steps []float64
		n     int
	}{
		{"crawl", []float64{0.1}, 700},
		{"stride", []float64{0.7}, 300},
		{"mixed", []float64{0.1, 0.1, 0.1, 0.1, 0.7, 0.3, 0, -0.25, 0.1, 0.15, 0.1, -0.45, 0.1, 0.1, 0.1, 0, 0.05}, 700},
	}
	for wi, wk := range walks {
		for _, k := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", wk.name, k), func(t *testing.T) {
				store, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				q, err := newNetOnStore(store, k, 1.6)
				if err != nil {
					t.Fatal(err)
				}
				ctl, err := newNetOnStore(store, k, 1.6)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(100*wi + k)))
				length := 0.0
				for i := 0; i < wk.n; i++ {
					length += wk.steps[i%len(wk.steps)] * cell
				}
				route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), length+cell, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				positions := anchorWalkPositions(route, cell, wk.steps, wk.n, wk.name != "stride")

				// Every fifth update is preceded by a site mutation, by turns an
				// insert and a removal far from the session and an insert and a
				// removal on top of it.
				farVertex := func(pos roadnet.Position, site bool) int {
					d := store.Current().Network()
					for {
						v := rng.Intn(g.NumVertices())
						if d.IsSite(v) == site && g.Point(v).Dist(pos.Point(g)) > 450 {
							return v
						}
					}
				}
				mutate := func(i int, pos roadnet.Position) {
					if i == 0 || i%5 != 0 {
						return
					}
					d := store.Current().Network()
					var err error
					switch i / 5 % 4 {
					case 0:
						err = store.InsertSite(farVertex(pos, false))
					case 1:
						err = store.RemoveSite(farVertex(pos, true))
					case 2:
						if v := pos.V; !d.IsSite(v) {
							err = store.InsertSite(v)
						}
					case 3:
						err = store.RemoveSite(q.Current()[0])
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				st := runAnchorWalk(t, q, ctl, func() *netvor.Diagram { return store.Current().Network() }, positions, mutate, true)
				t.Logf("%+v", st)
				if wk.name == "crawl" && st.served*3 < st.updates {
					t.Errorf("a crawl was served from the anchor on only %d of %d updates", st.served, st.updates)
				}
				if st.builds == 0 || st.carries == 0 || st.served == 0 || st.recomputes == 0 || st.tableRecomputes == 0 {
					t.Errorf("walk did not build, carry, serve, recompute and recompute from the tables: %+v", st)
				}
				if st.keptRepin == 0 || st.droppedRepin == 0 {
					t.Errorf("walk did not see a re-pin keep and a re-pin drop the anchor: %+v", st)
				}
			})
		}
	}
}

// tiesGrid is a uniform grid, where sites tie on distance all the time, with
// every third vertex a site, a zero-weight edge — z is a junction coincident
// with vertex 44, joined to it at no cost and onward to 45 by an edge as long
// as (44, 45) — and an island, a path of four vertices with three sites.
func tiesGrid(t *testing.T) (d *netvor.Diagram, z int) {
	t.Helper()
	const side = 10
	g, err := roadnet.GridNetwork(side, side, geom.NewRect(geom.Pt(0, 0), geom.Pt(900, 900)), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sites []int
	for v := 0; v < side*side; v += 3 {
		sites = append(sites, v)
	}
	z = g.AddVertex(g.Point(44))
	if err := g.AddEdgeWeight(44, z, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(z, 45, 0); err != nil {
		t.Fatal(err)
	}
	sites = append(sites, addIsland(t, g)...)
	d, err = netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	return d, z
}

// addIsland adds a component of its own to g, a path of four vertices, and
// returns the three of them that are to be sites.
func addIsland(t *testing.T, g *roadnet.Graph) []int {
	t.Helper()
	var path []int
	for i := 0; i < 4; i++ {
		path = append(path, g.AddVertex(geom.Pt(5000+30*float64(i), 0)))
		if i > 0 {
			if err := g.AddEdge(path[i-1], path[i], 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []int{path[0], path[1], path[3]}
}

// TestNetworkAnchorTiesAndZeroWeight: on the uniform grid, the zero-weight
// edge spliced into the route and walked slowly, the answers from the tables
// stay brute-force kNN sets and their distances the search's — which of two
// equidistant sites is reported may differ from the control, so only that is
// compared.
func TestNetworkAnchorTiesAndZeroWeight(t *testing.T) {
	d, z := tiesGrid(t)
	var positions []roadnet.Position
	crawl := func(u, v int) {
		for _, tt := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1} {
			positions = append(positions, roadnet.Position{U: u, V: v, T: tt})
		}
	}
	for _, e := range [][2]int{{42, 43}, {43, 44}, {44, z}, {z, 45}, {45, 46}, {46, 56}, {56, 55}, {55, 45}, {45, z}, {z, 44}, {44, 34}} {
		crawl(e[0], e[1])
	}
	for _, k := range []int{1, 2, 4} {
		q, err := NewNetworkQuery(d, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewNetworkQuery(d, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		st := runAnchorWalk(t, &netOnStore{NetworkQuery: q}, &netOnStore{NetworkQuery: ctl}, func() *netvor.Diagram { return d }, positions, nil, false)
		t.Logf("k=%d: %+v", k, st)
		if st.served == 0 || st.carries == 0 {
			t.Errorf("k=%d: the walk was never served or never carried: %+v", k, st)
		}
	}
}

// TestNetworkAnchorMergeMatchesSearch puts the table merge alone against the
// search: on every edge of a jittered grid and of the uniform one with its
// zero-weight edge, each with an island of fewer than M sites, at every kind
// of position — both orientations, both ends as T = 0 or 1 and as vertex
// positions — the cursor over the tables reports what KNNWithDistances(pos, M)
// does: the same sites where nothing ties, the same distances always, all M
// of them certified, and it ends exactly when the sites do.
func TestNetworkAnchorMergeMatchesSearch(t *testing.T) {
	g, err := roadnet.GridNetwork(18, 18, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), 0.2, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	sites := rand.New(rand.NewSource(12)).Perm(g.NumVertices())[:60]
	jittered, err := netvor.Build(g, append(sites, addIsland(t, g)...))
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := tiesGrid(t)
	for di, d := range []*netvor.Diagram{jittered, uniform} {
		exact := di == 0
		full, short := 0, 0
		for _, k := range []int{1, 2, 5, 10} {
			q, err := NewNetworkQuery(d, k, 1.6)
			if err != nil {
				t.Fatal(err)
			}
			m := q.prefetchCap()
			d.Graph().Edges(func(u, v int, _ float64) {
				q.anchor = freshAnchor(t, d, k, 1.6, u, v)
				for _, p := range []roadnet.Position{
					{U: u, V: v, T: 0}, {U: u, V: v, T: 0.3}, {U: v, V: u, T: 0.3}, {U: u, V: v, T: 0.55},
					{U: u, V: v, T: 1}, {U: v, V: u, T: 0.9}, roadnet.VertexPosition(u), roadnet.VertexPosition(v),
				} {
					tt, _ := along(u, v, p)
					hits := q.open(p)
					if hits.tab == nil {
						t.Fatalf("anchor on (%d,%d) does not cover %+v", u, v, p)
					}
					ids, ds := d.KNNWithDistances(p, m)
					before := q.Metrics().DistanceCalcs
					for j, want := range ids {
						site, ok := hits.next(q.Metrics())
						if !ok {
							t.Fatalf("k=%d at %+v: the merge ran short after %d of %d hits (tables %+v)", k, p, j, len(ids), q.anchor.end)
						}
						if exact && site != want {
							t.Fatalf("k=%d at %+v: hit #%d is site %d, the search reports %d (%v)", k, p, j, site, want, ids)
						}
						if ad := anchorDistance(&q.anchor, tt, site); !nearly(ad, ds[j]) {
							t.Fatalf("k=%d at %+v: hit #%d (site %d) at %g, the search has %g there", k, p, j, site, ad, ds[j])
						}
					}
					if got := hits.widen(); got != len(ids) {
						t.Fatalf("k=%d at %+v: %d hits stand, want %d", k, p, got, len(ids))
					}
					if read := q.Metrics().DistanceCalcs - before; read < len(ids) || read > 2*m {
						t.Fatalf("k=%d at %+v: %d hits charged %d table reads", k, p, len(ids), read)
					}
					if len(ids) == m {
						full++
						continue
					}
					short++
					if site, ok := hits.next(q.Metrics()); ok {
						t.Fatalf("k=%d at %+v: a component of %d sites yields one more, %d", k, p, len(ids), site)
					}
				}
			})
		}
		t.Logf("diagram %d: %d merges of full tables, %d of short ones", di, full, short)
		if full == 0 || short == 0 {
			t.Errorf("diagram %d: cases not covered", di)
		}
	}
}

// TestNetworkAnchorInvalidationMatchesFreshTables tests the tables' own
// invalidation rule differentially. A session parked on an edge of an
// index.Store's network, armed, sees one site mutation at a time — inserts and
// removals near it and far away, aimed at each case of the rule — and re-pins:
// an anchor the re-pin keeps holds the tables a new session pins (checkRepin),
// the removal of a table member and an insert that changes a table drop it,
// and a removal that drops it had to. The same on an island whose tables are
// short, which any insert drops, and with the adjacency unknown.
func TestNetworkAnchorInvalidationMatchesFreshTables(t *testing.T) {
	g, err := roadnet.GridNetwork(30, 30, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), 0.2, 0.3, 21)
	if err != nil {
		t.Fatal(err)
	}
	mainland := g.NumVertices()
	sites := rand.New(rand.NewSource(22)).Perm(mainland)[:mainland/4]
	island := addIsland(t, g)
	for _, k := range []int{1, 3, 8} {
		store, err := index.NewStore(index.Config{Network: g, NetworkSites: append(slices.Clone(sites), island...)})
		if err != nil {
			t.Fatal(err)
		}
		q, err := newNetOnStore(store, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		// park puts the session on edge (u, v) and arms it there.
		var u, v int
		flip := false
		update := func() {
			flip = !flip
			pos := roadnet.Position{U: u, V: v, T: 0.3}
			if flip {
				pos = roadnet.Position{U: v, V: u, T: 0.4}
			}
			knn, err := q.Update(pos)
			if err != nil {
				t.Fatal(err)
			}
			checkNetKNN(t, store.Current().Network(), pos, knn, k)
		}
		park := func(a, b int) {
			u, v = a, b
			update()
			update()
			if !q.anchor.armed {
				t.Fatalf("not armed after two updates on (%d,%d)", u, v)
			}
		}
		inTables := q.anchor.holds
		pick := func(what string, ok func(s int) bool) (int, bool) {
			for try := 0; try < 4000; try++ {
				if s := rng.Intn(mainland); ok(s) {
					return s, true
				}
			}
			t.Logf("k=%d on (%d,%d): no vertex for %q", k, u, v, what)
			return 0, false
		}
		seen := map[string]int{}
		// mutateAndRepin applies one mutation and re-pins; it returns what
		// happened to the anchor.
		mutateAndRepin := func(what string, insert bool, s int) (kept, changed bool) {
			if insert {
				err = store.InsertSite(s)
			} else {
				err = store.RemoveSite(s)
			}
			if err != nil {
				t.Fatalf("%s of %d: %v", what, s, err)
			}
			kept, dropped, changed := checkRepin(t, q, store.Current().Network())
			if !kept && !dropped {
				t.Fatalf("%s: the session was not armed", what)
			}
			if !insert && dropped && !changed {
				t.Fatalf("%s of %d dropped an anchor on (%d,%d) whose tables it leaves alone", what, s, u, v)
			}
			seen[what]++
			if kept {
				seen[what+", kept"]++
			}
			if changed {
				seen[what+", tables changed"]++
			}
			return kept, changed
		}
		for round := 0; round < 120; round++ {
			a := rng.Intn(mainland)
			nb := g.AdjacentVertices(a)
			park(a, nb[rng.Intn(len(nb))])
			d := store.Current().Network()
			isSite := d.IsSite
			ring := float64(60+30*k) * rng.Float64() // inserts from on top of the session to outside its tables
			near := func(s int) bool { r := g.Point(s).Dist(g.Point(u)); return r >= ring && r < ring+60 }
			var s int
			var ok bool
			switch round % 6 {
			case 0: // the new site becomes u's nearest
				if !isSite(u) {
					if kept, _ := mutateAndRepin("insert on the endpoint", true, u); kept {
						t.Fatalf("an insert on endpoint %d left the anchor armed", u)
					}
				}
			case 1:
				if s, ok = pick("member", inTables); ok {
					if kept, _ := mutateAndRepin("removal of a member", false, s); kept {
						t.Fatalf("the removal of member %d left the anchor armed", s)
					}
				}
			case 2:
				if s, ok = pick("guard site outside the tables", func(s int) bool { return slices.Contains(q.ids, s) && !inTables(s) }); ok {
					if kept, _ := mutateAndRepin("removal of a guard site outside the tables", false, s); !kept || q.init {
						t.Fatalf("the removal of guard site %d outside the tables: anchor kept %v, guard kept %v", s, kept, q.init)
					}
				}
			case 3: // the guard set gone, the tables are judged all the same
				q.Invalidate()
				if s, ok = pick("site outside the tables", func(s int) bool { return isSite(s) && !inTables(s) }); ok {
					if kept, _ := mutateAndRepin("removal outside the tables, no guard set", false, s); !kept {
						t.Fatalf("the removal of %d, outside the tables, dropped the anchor", s)
					}
				}
				if s, ok = pick("member", inTables); ok {
					if kept, _ := mutateAndRepin("removal of a member, no guard set", false, s); kept {
						t.Fatalf("the removal of member %d left the anchor armed", s)
					}
				}
			case 4:
				if s, ok = pick("vertex nearby", func(s int) bool { return !isSite(s) && near(s) }); ok {
					mutateAndRepin("insert nearby", true, s)
				}
			case 5:
				far := func(s int) bool { return g.Point(s).Dist(g.Point(u)) > 500 }
				if s, ok = pick("vertex far away", func(s int) bool { return !isSite(s) && far(s) }); ok {
					if kept, _ := mutateAndRepin("insert far away", true, s); !kept {
						t.Fatalf("an insert at %d, far from (%d,%d), dropped the anchor", s, u, v)
					}
				}
				if s, ok = pick("site far away", func(s int) bool { return isSite(s) && far(s) && !slices.Contains(q.ids, s) }); ok {
					park(u, v)
					if kept, _ := mutateAndRepin("removal far away", false, s); !kept {
						t.Fatalf("the removal of %d, far from (%d,%d), dropped the anchor", s, u, v)
					}
				}
			}
			update() // and the answers stay right
		}
		if k == 3 {
			// On the island the tables hold its three sites, short of M = 4.
			park(island[0], island[1])
			if n := len(q.anchor.end[0].site); n != 3 || q.prefetchCap() != 4 {
				t.Fatalf("island tables hold %d sites, M = %d", n, q.prefetchCap())
			}
			s, _ := pick("vertex", func(s int) bool { return !store.Current().Network().IsSite(s) })
			if kept, changed := mutateAndRepin("insert with short tables", true, s); kept || changed {
				t.Fatalf("a mainland insert with short tables: kept %v, tables changed %v", kept, changed)
			}
			park(island[0], island[1])
			if kept, changed := mutateAndRepin("insert extending short tables", true, island[1]+1); kept || !changed {
				t.Fatalf("an island insert with short tables: kept %v, tables changed %v", kept, changed)
			}
		}
		t.Logf("k=%d: %v", k, seen)
		for _, what := range []string{
			"insert on the endpoint", "removal of a member", "removal of a guard site outside the tables, kept",
			"removal outside the tables, no guard set", "removal of a member, no guard set",
			"insert nearby, kept", "insert nearby, tables changed", "insert far away, kept", "removal far away, kept",
		} {
			if seen[what] == 0 {
				t.Errorf("k=%d: case %q not covered: %v", k, what, seen)
			}
		}
		store.Close()
	}

	// Unknown adjacency drops the anchor whether or not a guard set is held.
	d, _ := tiesGrid(t)
	q, err := NewNetworkQuery(d, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, held := range []bool{true, false} {
		for _, tt := range []float64{0.2, 0.6} {
			if _, err := q.Update(roadnet.Position{U: 12, V: 13, T: tt}); err != nil {
				t.Fatal(err)
			}
		}
		if !held {
			q.Invalidate()
		}
		if !q.anchor.armed {
			t.Fatalf("guard held %v: not armed", held)
		}
		if affected := q.affects(&index.Op{Network: true, Insert: true, ID: 99}); affected != held || q.anchor.armed {
			t.Errorf("guard held %v: insert with unknown adjacency reports %v and leaves the anchor armed %v", held, affected, q.anchor.armed)
		}
	}
}

// TestNetworkAnchorInvalidationUnderRandomChurn is the same differential check
// under random churn, windows of one to three mutations between re-pins, with
// several armed sessions spread over the network — on a jittered grid and on a
// uniform one with zero-weight edges, where the rule rests on the diagram's
// id tie-break: a kept anchor holds the tables a new session pins, and every
// answer is the brute-force kNN.
func TestNetworkAnchorInvalidationUnderRandomChurn(t *testing.T) {
	jittered, err := roadnet.GridNetwork(16, 16, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), 0.2, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := roadnet.GridNetwork(14, 14, geom.NewRect(geom.Pt(0, 0), geom.Pt(1300, 1300)), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{20, 50, 90, 130} {
		z := uniform.AddVertex(uniform.Point(v))
		if err := uniform.AddEdgeWeight(v, z, 0); err != nil {
			t.Fatal(err)
		}
		if err := uniform.AddEdge(z, v+1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for gi, g := range []*roadnet.Graph{jittered, uniform} {
		n := g.NumVertices()
		for _, k := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(10*gi + k)))
			store, err := index.NewStore(index.Config{Network: g, NetworkSites: rng.Perm(n)[:n/5]})
			if err != nil {
				t.Fatal(err)
			}
			var qs [4]*netOnStore
			var at [len(qs)]roadnet.Position
			for i := range qs {
				if qs[i], err = newNetOnStore(store, k, 1.6); err != nil {
					t.Fatal(err)
				}
			}
			kept, dropped, needed := 0, 0, 0
			for round := 0; round < 400; round++ {
				for i, q := range qs {
					if q.anchor.armed && rng.Intn(10) > 0 {
						continue
					}
					u := rng.Intn(n)
					nb := g.AdjacentVertices(u)
					at[i] = roadnet.Position{U: u, V: nb[rng.Intn(len(nb))], T: 0.1 + 0.8*rng.Float64()}
					for j := 0; j < 2; j++ {
						if _, err := q.Update(at[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for m := rng.Intn(3) + 1; m > 0; m-- {
					d := store.Current().Network()
					switch v := rng.Intn(n); {
					case !d.IsSite(v):
						err = store.InsertSite(v)
					case d.Len() > 2*k+2:
						err = store.RemoveSite(v)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				d := store.Current().Network()
				for i, q := range qs {
					k1, d1, changed := checkRepin(t, q, d)
					if k1 {
						kept++
					}
					if d1 {
						dropped++
					}
					if d1 && changed {
						needed++
					}
					knn, err := q.Update(at[i])
					if err != nil {
						t.Fatal(err)
					}
					checkNetKNN(t, d, at[i], knn, k)
				}
			}
			t.Logf("graph %d, k=%d: re-pins kept %d anchors and dropped %d, %d of them with changed tables", gi, k, kept, dropped, needed)
			if kept == 0 || needed == 0 {
				t.Errorf("graph %d, k=%d: cases not covered", gi, k)
			}
			store.Close()
		}
	}
}

// TestNetworkAnchorSeesMutationsWhileInvalidated: a session that is armed but
// holds no guard set still has its tables judged when it re-pins, lazily
// (Sync) or eagerly (Refresh): the next update, answered on the same edge,
// knows the site that appeared on the endpoint and the one that went.
func TestNetworkAnchorSeesMutationsWhileInvalidated(t *testing.T) {
	g, err := roadnet.GridNetwork(12, 12, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), 0.2, 0.3, 31)
	if err != nil {
		t.Fatal(err)
	}
	const k, u, v = 3, 65, 66
	for _, eager := range []bool{true, false} {
		store, err := index.NewStore(index.Config{Network: g, NetworkSites: rand.New(rand.NewSource(32)).Perm(u)[:30]}) // u and v are no sites
		if err != nil {
			t.Fatal(err)
		}
		q, err := newNetOnStore(store, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		park := func() []int {
			var knn []int
			for _, tt := range []float64{0.4, 0.5} {
				pos := roadnet.Position{U: u, V: v, T: tt}
				if knn, err = q.Update(pos); err != nil {
					t.Fatal(err)
				}
				checkNetKNN(t, store.Current().Network(), pos, knn, k)
			}
			if !q.anchor.armed {
				t.Fatal("not armed")
			}
			return slices.Clone(knn)
		}
		repin := func() {
			if !eager {
				q.Sync()
			} else if _, _, err := q.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		park()
		q.Invalidate()
		if err := store.InsertSite(u); err != nil {
			t.Fatal(err)
		}
		repin()
		if q.anchor.armed {
			t.Errorf("eager %v: a site on the endpoint left the anchor armed", eager)
		}
		if knn := park(); knn[0] != u {
			t.Errorf("eager %v: kNN %v after a site appeared on endpoint %d", eager, knn, u)
		}
		q.Invalidate()
		if err := store.RemoveSite(u); err != nil {
			t.Fatal(err)
		}
		repin()
		if knn := park(); slices.Contains(knn, u) {
			t.Errorf("eager %v: kNN %v after site %d went", eager, knn, u)
		}
		store.Close()
	}
}
