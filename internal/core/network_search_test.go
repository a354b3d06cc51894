package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// classifyNetUpdate runs one Update and names the outcome it took.
func classifyNetUpdate(tb testing.TB, q *NetworkQuery, pos roadnet.Position) string {
	tb.Helper()
	before := *q.Metrics()
	if _, err := q.Update(pos); err != nil {
		tb.Fatal(err)
	}
	return outcomeName(before, *q.Metrics())
}

// outcomeName names the outcome of the one update between two counter
// readings ("first" for a first placement, which validates nothing).
func outcomeName(before, after metrics.Counters) string {
	for _, o := range []string{"recompute", "rerank", "validate"} {
		if after.Validations > before.Validations && outcomeCount(before, after, o) > 0 {
			return o
		}
	}
	return "first"
}

// netOutcomeLoop is outcomeLoop for the road network: a query over d and
// two positions between which it alternates forever with every Update
// taking the named outcome, found by trying walks of growing length from
// random vertices.
func netOutcomeLoop(tb testing.TB, d *netvor.Diagram, outcome string, seed int64) (*NetworkQuery, [2]roadnet.Position) {
	tb.Helper()
	const k, rho = 10, 1.6
	g := d.Graph()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		start := rng.Intn(g.NumVertices())
		route, err := roadnet.RandomWalkRoute(g, start, 400, rng.Int63())
		if err != nil {
			tb.Fatal(err)
		}
		for _, f := range []float64{0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 1} {
			pos := [2]roadnet.Position{route.PositionAt(0), route.PositionAt(f * route.Length())}
			q, err := NewNetworkQuery(d, k, rho)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := q.Update(pos[0]); err != nil {
				tb.Fatal(err)
			}
			ok := true
			for i := 1; i <= 6 && ok; i++ {
				ok = classifyNetUpdate(tb, q, pos[i&1]) == outcome
			}
			if ok {
				return q, pos
			}
		}
	}
	tb.Fatalf("no pair of positions alternates with outcome %q", outcome)
	return nil, [2]roadnet.Position{}
}

// gridDiagram builds the street grid and site density of the repository
// benchmark's network workloads at the given side length.
func gridDiagram(tb testing.TB, side, sites int) *netvor.Diagram {
	tb.Helper()
	g, err := roadnet.GridNetwork(side, side, geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000)), 0.2, 0.3, 5)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := netvor.Build(g, rand.New(rand.NewSource(6)).Perm(g.NumVertices())[:sites])
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestNetworkResumeUpdateAllocatesNothing: in steady state a network Update
// allocates nothing in any of its three outcomes — the search state lives
// in the scratch, a re-rank permutes R in place, and a recomputation
// appends R and I(R) onto the session's one id list — nor on a crawl or a
// stride whose edge anchor arms, serves, is carried across vertices and
// answers recomputations: the two tables keep their capacity and the merge
// keeps none. Every update begins the searches its class says
// (checkAnchorCounts).
func TestNetworkResumeUpdateAllocatesNothing(t *testing.T) {
	d := gridDiagram(t, 96, 1400)
	update := func(q *NetworkQuery, pos roadnet.Position) (answered bool) {
		before := *q.Metrics()
		if _, err := q.Update(pos); err != nil {
			t.Fatal(err)
		}
		return checkAnchorCounts(t, q, pos, before)
	}
	for _, outcome := range []string{"validate", "rerank", "recompute"} {
		q, pos := netOutcomeLoop(t, d, outcome, 5)
		before := *q.Metrics()
		i := 0
		allocs := testing.AllocsPerRun(300, func() {
			i++
			update(q, pos[i&1])
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per Update, want 0", outcome, allocs)
		}
		after := q.Metrics()
		if took, n := outcomeCount(before, *after, outcome), after.Timestamps-before.Timestamps; took != n {
			t.Errorf("%s: only %d of %d measured updates took that outcome", outcome, took, n)
		}
	}

	// The walks, back and forth over one route at a tenth and at seven tenths
	// of an edge per update; the first round trips grow the buffers to their
	// steady size.
	g := d.Graph()
	const cell = 10000.0 / 95
	for _, walk := range []struct {
		name string
		step float64
	}{{"crawl", 0.1}, {"stride", 0.7}} {
		route, err := roadnet.RandomWalkRoute(g, 4000, 300*walk.step*cell, 3)
		if err != nil {
			t.Fatal(err)
		}
		positions := anchorWalkPositions(route, cell, []float64{walk.step}, 300, false)
		q, err := NewNetworkQuery(d, 10, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		i, dir := 0, 1
		served, carried, recomputed := 0, 0, 0
		step := func() {
			before := *q.Metrics()
			answered := update(q, positions[i])
			after := q.Metrics()
			served += after.AnchoredValidations - before.AnchoredValidations
			if tablesTaken(before, *after) == 1 { // searched for, or served from the cache
				carried++
			}
			if answered && after.Recomputations > before.Recomputations {
				recomputed++
			}
			if i+dir < 0 || i+dir >= len(positions) {
				dir = -dir
			}
			i += dir
		}
		for n := 0; n < 4*len(positions); n++ {
			step()
		}
		served, carried, recomputed = 0, 0, 0
		if allocs := testing.AllocsPerRun(2*len(positions), step); allocs != 0 {
			t.Errorf("%s: %.2f allocs per Update, want 0", walk.name, allocs)
		}
		if served == 0 || carried == 0 || recomputed == 0 {
			t.Errorf("%s: the anchor served %d updates, was carried %d times and answered %d recomputations; want all three", walk.name, served, carried, recomputed)
		}
	}
}

// TestNetworkResumeWalkWithSiteChurnMatchesOracle: random walks with
// interleaved site inserts and removals, each repaired by Refresh, and
// Invalidate+Refresh answer like the oracle after every call, keep
// kNN ≡ R[:k], and take all three outcomes.
// Every Update begins the searches its class says (checkAnchorCounts) — one
// per anchor table built, and one more unless the tables answer it — and a
// recomputation, read from the tables, continued from the failed validation or
// begun cold, leaves all of R the nearest sites in rank order and I(R) their
// neighbor set.
func TestNetworkResumeWalkWithSiteChurnMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		k   int
		rho float64
	}{{1, 1}, {3, 1.6}, {8, 1.6}, {5, 1}} {
		g, built := buildNetwork(t, 600, 90, int64(tc.k)*31)
		store, err := index.NewStore(index.Config{Network: g, NetworkSites: built.Sites()})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		q, err := newNetOnStore(store, tc.k, tc.rho)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.k) + 100))
		route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), 6000, int64(tc.k)+200)
		if err != nil {
			t.Fatal(err)
		}
		outcomes := map[string]int{}
		anchored := map[string]int{} // outcomes of the updates the anchor's tables answered
		check := func(pos roadnet.Position, knn []int) {
			checkNetKNN(t, store.Current().Network(), pos, knn, tc.k)
			if r := q.Prefetched(); !slices.Equal(q.Current(), r[:tc.k]) {
				t.Fatalf("kNN %v is not the prefix of R %v", q.Current(), r)
			}
		}
		checkRecomputed := func(pos roadnet.Position) {
			d, r := store.Current().Network(), q.Prefetched()
			checkNetKNN(t, d, pos, r, len(r))
			dist := g.ShortestDistances(pos.Sources(g), -1)
			if !slices.IsSortedFunc(r, func(a, b int) int { return cmp.Compare(dist[a], dist[b]) }) {
				t.Fatalf("at %+v: R %v is not in rank order after a recomputation", pos, r)
			}
			if ins, err := d.INS(r); err != nil || !slices.Equal(q.INS(), ins) {
				t.Fatalf("at %+v: I(R) = %v, the diagram says %v (err %v)", pos, q.INS(), ins, err)
			}
		}
		step := 0
		for dist := 0.0; dist <= route.Length(); dist += 6 {
			pos := route.PositionAt(dist)
			before := *q.Metrics()
			knn, err := q.Update(pos)
			if err != nil {
				t.Fatal(err)
			}
			outcome := outcomeName(before, *q.Metrics())
			outcomes[outcome]++
			check(pos, knn)
			if checkAnchorCounts(t, q.NetworkQuery, pos, before) {
				anchored[outcome]++
			}
			if outcome == "recompute" {
				checkRecomputed(pos)
			}
			step++
			switch {
			case step%7 == 0:
				d := store.Current().Network()
				v := rng.Intn(g.NumVertices())
				for d.IsSite(v) {
					v = rng.Intn(g.NumVertices())
				}
				if _, err := store.Apply([]index.Mutation{{Network: true, Insert: true, ID: v}}); err != nil {
					t.Fatal(err)
				}
				knn, recomputed, err := q.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				check(pos, knn)
				if recomputed {
					checkRecomputed(pos)
				}
			case step%11 == 0:
				d := store.Current().Network()
				victim := d.Sites()[rng.Intn(d.Len())]
				if step%22 == 0 {
					victim = q.Current()[0] // evict the nearest neighbor itself
				}
				if _, err := store.Apply([]index.Mutation{{Network: true, ID: victim}}); err != nil {
					t.Fatal(err)
				}
				knn, _, err := q.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				check(pos, knn)
			case step%53 == 0:
				q.Invalidate()
				knn, recomputed, err := q.Refresh()
				if err != nil || !recomputed {
					t.Fatalf("Refresh after Invalidate = (recomputed %v, err %v)", recomputed, err)
				}
				check(pos, knn)
				checkRecomputed(pos)
			}
		}
		if anchored["validate"] == 0 || anchored["recompute"] == 0 {
			t.Errorf("k=%d rho=%g: the edge anchor's tables answered %v, want validations and recomputations", tc.k, tc.rho, anchored)
		}
		for _, o := range []string{"validate", "recompute"} {
			if outcomes[o] == 0 {
				t.Errorf("k=%d rho=%g: walk never took outcome %s (%v)", tc.k, tc.rho, o, outcomes)
			}
		}
		if tc.rho > 1 && tc.k > 1 && outcomes["rerank"] == 0 {
			t.Errorf("k=%d rho=%g: walk never re-ranked (%v)", tc.k, tc.rho, outcomes)
		}
	}
}

// twoIslands is a network of two components: a 6x6 grid with plenty of
// sites and a 3-vertex path with a single site, joined by nothing.
func twoIslands(t *testing.T) (*netvor.Diagram, []int) {
	t.Helper()
	g, err := roadnet.GridNetwork(6, 6, testBounds, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := g.AddVertex(geom.Pt(2000, 0))
	b := g.AddVertex(geom.Pt(2010, 0))
	c := g.AddVertex(geom.Pt(2020, 0))
	for _, e := range [][2]int{{a, b}, {b, c}} {
		if err := g.AddEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	sites := []int{0, 7, 14, 21, 28, 35, 3, 18, b}
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	return d, []int{a, b, c}
}

// gridWalks are sessions on the repository benchmark's street grid (448x448,
// 30k sites, edges of ~22 units) by the distance they cover per update: the
// benchmark's two kinds, a crawl (a tenth of an edge) and a stride (0.7), a jog
// (0.94) that seldom reports twice from one edge, and a sprint (1.6) that never
// does and so bypasses the edge anchor.
var gridWalks = []struct {
	name string
	step float64
}{{"crawl", 2}, {"stride", 16}, {"jog", 21}, {"sprint", 36}}

// benchTraj is how many positions a session of the repository benchmark
// replays, ping-pong.
const benchTraj = 256

// gridWalk returns a k = 10, ρ = 1.6 session over d and step, which moves it
// one update on, back and forth over a random walk of benchTraj positions, and
// returns the position it reported.
func gridWalk(tb testing.TB, d *netvor.Diagram, stride float64) (q *NetworkQuery, step func() roadnet.Position) {
	tb.Helper()
	const trajLen = benchTraj
	route, err := roadnet.RandomWalkRoute(d.Graph(), 100000, stride*trajLen, 9)
	if err != nil {
		tb.Fatal(err)
	}
	positions := make([]roadnet.Position, trajLen)
	for j := range positions {
		positions[j] = route.PositionAt(stride * float64(j))
	}
	if q, err = NewNetworkQuery(d, 10, 1.6); err != nil {
		tb.Fatal(err)
	}
	at, dir := 0, 1
	return q, func() roadnet.Position {
		pos := positions[at]
		if _, err := q.Update(pos); err != nil {
			tb.Fatal(err)
		}
		if at+dir < 0 || at+dir >= trajLen {
			dir = -dir
		}
		at += dir
		return pos
	}
}

// foreignScratch returns a scratch whose table cache follows another
// diagram than any query's, a branch of d: it serves them nothing and keeps
// nothing of theirs, so a session on it searches for every table, as all did
// before there was a cache.
func foreignScratch(d *netvor.Diagram) *netvor.SearchScratch {
	sc := new(netvor.SearchScratch)
	d.Branch().AppendVertexTable(0, 1, nil, nil, sc)
	return sc
}

// searchSteps is the network's share of the benchmark's
// search_steps_per_update: edge relaxations plus anchor table entries and
// table cache stamps read.
func searchSteps(m *metrics.Counters) int { return m.EdgeRelaxations + m.DistanceCalcs }

// TestNetworkAnchorGainOnBenchmarkGrid pins what the edge anchor and the table
// cache behind it save, as counts, which repeat exactly, over the benchmark's
// ping-pong: one traversal out and the same 256 updates' way back. Beside the
// session runs a twin whose scratch follows some other site set, so that the
// cache serves it nothing: it costs what a session did before there was a
// cache (the counts of the parent commit, a crawl under 60 search steps per
// update and a stride under 260 where a control that never arms pays over
// 300), and update by update the session costs exactly the same whenever it
// took no table from the cache — a first visit reads no stamp and pays for
// nothing — and less when it did; the random walk crosses its own path now and
// then, so some tables are served on the way out already. On the way back
// every table is, none is built, a stride costs under a third of its way out
// and a crawl, most of whose cost is the merges that answer its validations,
// under two fifths. A sprint never arms, takes no table and costs exactly what
// the control does, both ways.
func TestNetworkAnchorGainOnBenchmarkGrid(t *testing.T) {
	d := gridDiagram(t, 448, 30000)
	foreign := foreignScratch(d)
	want := map[string][3]int{ // the twin's way out; the session's way out and back
		"crawl": {14013, 13057, 4830}, "stride": {63780, 54360, 8818}, "jog": {84327, 71471, 13212}, "sprint": {101090, 101090, 101337},
	}
	for _, walk := range gridWalks {
		q, step := gridWalk(t, d, walk.step)
		twin, twinStep := gridWalk(t, d, walk.step)
		twin.UseScratch(foreign)
		ctl, ctlStep := gridWalk(t, d, walk.step)
		var cost, twinCost, ctlCost [2]int
		for pass := range cost {
			before, twinBefore, ctlBefore := *q.Metrics(), *twin.Metrics(), *ctl.Metrics()
			for i := 0; i < benchTraj; i++ {
				was, twinWas := *q.Metrics(), *twin.Metrics()
				pos := step()
				twinStep()
				m, tm := q.Metrics(), twin.Metrics()
				paid, twinPaid := searchSteps(m)-searchSteps(&was), searchSteps(tm)-searchSteps(&twinWas)
				if served := m.AnchorTableHits - was.AnchorTableHits; served == 0 && paid != twinPaid || served > 0 && paid >= twinPaid || tablesTaken(was, *m) != tablesTaken(twinWas, *tm) {
					t.Fatalf("%s at %+v: %d search steps with %d of %d tables from the cache, %d with none of %d",
						walk.name, pos, paid, served, tablesTaken(was, *m), twinPaid, tablesTaken(twinWas, *tm))
				}
				ctl.anchor.armed = false
				ctl.last = roadnet.Position{U: -1, V: -1} // knocked off its edge: never arms
				ctlStep()
			}
			m, tm, cm := q.Metrics(), twin.Metrics(), ctl.Metrics()
			cost[pass], twinCost[pass], ctlCost[pass] = searchSteps(m)-searchSteps(&before), searchSteps(tm)-searchSteps(&twinBefore), searchSteps(cm)-searchSteps(&ctlBefore)
			t.Logf("%s, pass %d: %.1f search steps per update (%d anchored, %d tables built, %d from the cache), with no cache %.1f, never arming %.1f",
				walk.name, pass, float64(cost[pass])/benchTraj, m.AnchoredValidations-before.AnchoredValidations, m.AnchorBuilds-before.AnchorBuilds,
				m.AnchorTableHits-before.AnchorTableHits, float64(twinCost[pass])/benchTraj, float64(ctlCost[pass])/benchTraj)
			if back := pass == 1; back && m.AnchorBuilds != before.AnchorBuilds {
				t.Errorf("%s: %d tables built on the way back", walk.name, m.AnchorBuilds-before.AnchorBuilds)
			}
		}
		m, tm, cm := q.Metrics(), twin.Metrics(), ctl.Metrics()
		if tm.AnchorTableHits != 0 || tablesTaken(metrics.Counters{}, *cm) != 0 || m.Recomputations != cm.Recomputations || m.ObjectsShipped != cm.ObjectsShipped {
			t.Errorf("%s: %v, with no cache %v, never arming %v", walk.name, m, tm, cm)
		}
		if got := [3]int{twinCost[0], cost[0], cost[1]}; got != want[walk.name] {
			t.Errorf("%s: %v search steps (no cache, out; out; back), want %v", walk.name, got, want[walk.name])
		}
		switch limit := map[string]int{"crawl": 60, "stride": 260}[walk.name] * benchTraj; {
		case walk.name == "crawl" && 5*cost[1] > 2*cost[0], walk.name == "stride" && 3*cost[1] > cost[0]:
			t.Errorf("%s: %d search steps on the way back, %d on the way out", walk.name, cost[1], cost[0])
		case limit > 0 && (twinCost[0] > limit || ctlCost[0] < 300*benchTraj):
			t.Errorf("%s: %d search steps on the way out with no cache, want at most %d (never arming: %d)", walk.name, twinCost[0], limit, ctlCost[0])
		case walk.name == "sprint" && (tablesTaken(metrics.Counters{}, *m) != 0 || cost != ctlCost):
			t.Errorf("sprint: %v search steps with %d tables taken, never arming %v", cost, tablesTaken(metrics.Counters{}, *m), ctlCost)
		}
	}
}

// BenchmarkNetworkUpdate is the core row of the per-layer ledger without
// the harness: one Update on the repository benchmark's street grid, k = 10,
// ρ = 1.6 — by outcome, between two positions, and as the sessions of
// gridWalks, twice: with a scratch that follows some other site set, so that
// every table is searched for (what a session costs where no one has driven
// before, and what it cost before there was a table cache), and pingpong/, as
// the benchmark's sessions run, every table out of the cache after the first
// traversal. relax/update is searchSteps; anchored/update, tables/update and
// cached/update are the edge anchor's split.
func BenchmarkNetworkUpdate(b *testing.B) {
	d := gridDiagram(b, 448, 30000)
	report := func(b *testing.B, before, after metrics.Counters) {
		n := float64(b.N)
		b.ReportMetric(float64(searchSteps(&after)-searchSteps(&before))/n, "relax/update")
		b.ReportMetric(float64(after.AnchoredValidations-before.AnchoredValidations)/n, "anchored/update")
		b.ReportMetric(float64(after.AnchorBuilds-before.AnchorBuilds)/n, "tables/update")
		b.ReportMetric(float64(after.AnchorTableHits-before.AnchorTableHits)/n, "cached/update")
	}
	for _, outcome := range []string{"validate", "rerank", "recompute"} {
		q, pos := netOutcomeLoop(b, d, outcome, 9)
		step := 0 // runs on across the b.N ramp: the query is at pos[step&1]
		b.Run(outcome, func(b *testing.B) {
			before := *q.Metrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step++
				if _, err := q.Update(pos[step&1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := *q.Metrics()
			report(b, before, after)
			if took := outcomeCount(before, after, outcome); took != b.N {
				b.Fatalf("only %d of %d updates took outcome %s", took, b.N, outcome)
			}
		})
	}
	foreign := foreignScratch(d)
	for _, prefix := range []string{"", "pingpong/"} {
		for _, walk := range gridWalks {
			q, step := gridWalk(b, d, walk.step)
			if prefix == "" {
				q.UseScratch(foreign)
			}
			b.Run(prefix+walk.name, func(b *testing.B) {
				before := *q.Metrics()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.StopTimer()
				report(b, before, *q.Metrics())
			})
		}
	}
}
