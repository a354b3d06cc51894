package netvor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/roadnet"
)

// checkTable fails the test unless site and dist, vertex u's table of m
// entries as the cache served (hit) or built it at the given step, are
// AppendKNN from u, bit for bit.
func checkTable(t *testing.T, d *Diagram, oracle *SearchScratch, step int, hit bool, u, m int, site []int32, dist []float64) {
	t.Helper()
	ids, ds, _ := d.AppendKNN(roadnet.VertexPosition(u), m, nil, nil, oracle)
	got := make([]int, len(site))
	for i, s := range site {
		got[i] = int(s)
	}
	if !slices.Equal(got, ids) || !slices.Equal(dist, ds) {
		t.Fatalf("step %d vertex %d (hit %v): table %v %v, the search reports %v %v", step, u, hit, got, dist, ids, ds)
	}
}

// TestTableCacheBookkeepingStaysBounded drives 100,000 site mutations through
// a cache whose ring holds about two hundred tables, with a few lookups
// between them: the invalidation stamps never outnumber the sites touched
// while the ring turned over twice, the directory never names more than two
// turns' tables, and what the cache serves stays AppendKNN from the vertex,
// bit for bit. Then the same for a ring that never fills, which no wrap
// prunes: it keeps no more stamps than it has entries.
func TestTableCacheBookkeepingStaysBounded(t *testing.T) {
	g, err := roadnet.GridNetwork(40, 40, testBounds, 0.2, 0.3, 51)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	d, err := Build(g, rng.Perm(g.NumVertices())[:240])
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	var sc, oracle SearchScratch
	var site []int32
	var dist []float64
	maxStamps, maxNamed, hits, checked := 0, 0, 0, 0
	for step := 0; step < 100000; step++ {
		v := rng.Intn(g.NumVertices())
		if d.IsSite(v) {
			if d.Len() > 200 {
				if err := d.Remove(v); err != nil {
					t.Fatal(err)
				}
				sc.SiteChanged(v, false, nil)
			}
		} else {
			if err := d.Insert(v); err != nil {
				t.Fatal(err)
			}
			nb, err := d.Neighbors(v)
			if err != nil {
				t.Fatal(err)
			}
			sc.SiteChanged(v, true, nb)
		}
		for n := 0; n < 4; n++ {
			u := rng.Intn(g.NumVertices())
			if n == 0 {
				u = rng.Intn(64) // a corner of the grid that is come back to
			}
			var hit bool
			site, dist, _, _, hit = d.AppendVertexTable(u, m, site[:0], dist[:0], &sc)
			if hit {
				hits++
			}
			if hit || step%16 == 0 {
				checkTable(t, d, &oracle, step, hit, u, m, site, dist)
				checked++
			}
		}
		maxStamps, maxNamed = max(maxStamps, len(sc.tables.touched)), max(maxNamed, len(sc.tables.live))
	}
	bound := g.NumVertices() * 2 / 3
	t.Logf("ring of %d entries: at most %d stamps and %d named tables at a time; %d hits, %d tables checked", bound, maxStamps, maxNamed, hits, checked)
	if len(sc.tables.site) != bound || hits < 1000 {
		t.Fatalf("ring of %d entries (bound %d), %d hits: the cache was not exercised", len(sc.tables.site), bound, hits)
	}
	// A turn of the ring is bound/(1+m) tables, four of them written between
	// two mutations at most, and a mutation stamps a site and its neighbors:
	// a dozen sites would be many.
	if tables := bound / (1 + m); maxNamed > 2*tables || maxStamps > 2*(tables/4+1)*12 {
		t.Fatalf("%d stamps and %d named tables at a time for a ring of %d tables", maxStamps, maxNamed, tables)
	}

	// A ring that never fills never wraps, so no wrap prunes its stamps: on a
	// 100x100 grid with 2,000 sites, after one table, 100k mutations and a
	// lookup every 5,000, the stamps still never outnumber the ring's entries.
	if g, err = roadnet.GridNetwork(100, 100, testBounds, 0.2, 0.3, 53); err != nil {
		t.Fatal(err)
	}
	if d, err = Build(g, rng.Perm(g.NumVertices())[:2000]); err != nil {
		t.Fatal(err)
	}
	var idle SearchScratch
	lookup := func(step int) {
		t.Helper()
		var hit bool
		site, dist, _, _, hit = d.AppendVertexTable(0, m, site[:0], dist[:0], &idle)
		checkTable(t, d, &oracle, step, hit, 0, m, site, dist)
	}
	lookup(0)
	ring, maxStamps := len(idle.tables.site), 0
	for step := 1; step <= 100000; step++ {
		if step%2 == 0 {
			v := d.Sites()[rng.Intn(d.Len())]
			if err := d.Remove(v); err != nil {
				t.Fatal(err)
			}
			idle.SiteChanged(v, false, nil)
		} else {
			v := rng.Intn(g.NumVertices())
			for d.IsSite(v) {
				v = rng.Intn(g.NumVertices())
			}
			if err := d.Insert(v); err != nil {
				t.Fatal(err)
			}
			nb, err := d.Neighbors(v)
			if err != nil {
				t.Fatal(err)
			}
			idle.SiteChanged(v, true, nb)
		}
		maxStamps = max(maxStamps, len(idle.tables.touched))
		if step%5000 == 0 {
			lookup(step)
		}
	}
	t.Logf("never-filling ring of %d entries: at most %d stamps at a time", ring, maxStamps)
	if len(idle.tables.site) != ring || maxStamps > ring {
		t.Fatalf("a ring of %d entries (%d at the start) kept up to %d stamps", len(idle.tables.site), ring, maxStamps)
	}
}

// TestTableBudgetSharedByScratches: four scratches draw their rings from one
// budget of four rings. Each takes its first 1,024 entries when it is given
// the budget. The busy one then grows past one ring and on until the budget
// is spent, after which it wraps at the size it has; the others need tables
// only after that and still hold and serve them from the entries they took
// first. The rings never hold more than the budget in all, and hold exactly
// what was drawn from it; what every scratch serves stays AppendKNN from the
// vertex, bit for bit.
func TestTableBudgetSharedByScratches(t *testing.T) {
	g, err := roadnet.GridNetwork(100, 100, testBounds, 0.2, 0.3, 54)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	d, err := Build(g, rng.Perm(g.NumVertices())[:1500])
	if err != nil {
		t.Fatal(err)
	}
	const m, rings, late = 8, 4, 10000
	ring := g.NumVertices() * 2 / 3
	budget := NewTableBudget(rings, d)
	if budget.Max() != rings*ring || budget.Drawn() != 0 {
		t.Fatalf("a fresh budget of %d rings of %d: max %d, drawn %d", rings, ring, budget.Max(), budget.Drawn())
	}
	scs := make([]SearchScratch, rings)
	for i := range scs {
		scs[i].UseTableBudget(budget)
		if len(scs[i].tables.site) != 1024 {
			t.Fatalf("scratch %d took %d entries of its budget at first, want 1024", i, len(scs[i].tables.site))
		}
	}
	var oracle SearchScratch
	var site []int32
	var dist []float64
	hits, idleHits, checked, wraps := 0, 0, 0, 0
	for step := 0; step < 2*late; step++ {
		sc, size, tail := &scs[0], len(scs[0].tables.site), scs[0].tables.tail
		if step == late && budget.Drawn() != budget.Max() {
			t.Fatalf("step %d: the busy ring of %d entries left %d of %d undrawn", step, size, budget.Max()-budget.Drawn(), budget.Max())
		}
		idle := step >= late && step%100 == 0
		if idle {
			sc = &scs[1+step/100%(rings-1)]
		}
		u := rng.Intn(g.NumVertices())
		if step%3 == 0 || idle {
			u = rng.Intn(200) // rows that are come back to
		}
		var hit bool
		site, dist, _, _, hit = d.AppendVertexTable(u, m, site[:0], dist[:0], sc)
		if hit {
			hits++
			if idle {
				idleHits++
			}
		}
		if scs[0].tables.tail < tail {
			wraps++
		}
		if hit || step%16 == 0 {
			checkTable(t, d, &oracle, step, hit, u, m, site, dist)
			checked++
		}
		total := 0
		for i := range scs {
			total += len(scs[i].tables.site)
		}
		if total > budget.Max() || total != budget.Drawn() {
			t.Fatalf("step %d: the rings hold %d entries, %d drawn of %d", step, total, budget.Drawn(), budget.Max())
		}
	}
	sizes := make([]int, rings)
	for i := range scs {
		sizes[i] = len(scs[i].tables.site)
	}
	t.Logf("rings of %v entries from a budget of %d (%d a ring), the busy one wrapped %d times; %d hits (%d on the late rings), %d tables checked", sizes, budget.Max(), ring, wraps, hits, idleHits, checked)
	if sizes[0] <= ring || budget.Drawn() != budget.Max() || wraps == 0 || hits < 1000 {
		t.Fatalf("busy ring of %d entries (one ring is %d), %d of %d drawn, %d wraps, %d hits", sizes[0], ring, budget.Drawn(), budget.Max(), wraps, hits)
	}
	for i := 1; i < rings; i++ {
		if sizes[i] != 1024 || len(scs[i].tables.live) == 0 {
			t.Fatalf("late scratch %d holds a ring of %d entries naming %d tables, want its first 1024 in use", i, sizes[i], len(scs[i].tables.live))
		}
	}
	if idleHits == 0 {
		t.Fatalf("the late rings served no table of the %d they were asked for", late/100)
	}
}

// TestSparseMarksServeEveryMarker: a scratch whose mark set SubnetworkInto has
// grown far past its first size — it marks every vertex of the cells it walks
// — and emptied again gives InSubnetwork, AppendINS, the guard search and the
// next extraction what a scratch of its own gives each.
func TestSparseMarksServeEveryMarker(t *testing.T) {
	tc := guardCases(t)[0]
	d, g := tc.d, tc.d.Graph()
	rng := rand.New(rand.NewSource(61))
	var sc SearchScratch
	all := d.SubnetworkInto(d.Sites(), nil, &sc)
	if len(all.ToFull) != g.NumVertices() {
		t.Fatalf("the cells of every site cover %d of %d vertices", len(all.ToFull), g.NumVertices())
	}
	for trial := 0; trial < 50; trial++ {
		guard, _ := randomGuard(t, d, rng)
		var fresh SearchScratch
		sub, want := d.SubnetworkInto(guard, nil, &sc), d.SubnetworkInto(guard, nil, &fresh)
		if !slices.Equal(sub.ToFull, want.ToFull) || sub.G.NumEdges() != want.G.NumEdges() {
			t.Fatalf("trial %d: extraction differs from a fresh scratch's", trial)
		}
		for n := 0; n < 20; n++ {
			v := rng.Intn(g.NumVertices())
			if _, in := want.ToSub[v]; d.InSubnetwork(guard, v, &sc) != in {
				t.Fatalf("trial %d: InSubnetwork(%d) = %v, the extraction says %v", trial, v, !in, in)
			}
		}
		r := guard[:1+rng.Intn(len(guard))]
		ins, err := d.AppendINS(r, nil, &sc)
		if err != nil {
			t.Fatal(err)
		}
		wantINS, err := d.AppendINS(r, nil, &fresh)
		if err != nil || !slices.Equal(ins, wantINS) {
			t.Fatalf("trial %d: AppendINS %v, a fresh scratch says %v (err %v)", trial, ins, wantINS, err)
		}
		checkGuardSearch(t, tc.name, d, want, guard, tc.generic, guardProbes(g, want, rng), rng, &sc)
	}
}
