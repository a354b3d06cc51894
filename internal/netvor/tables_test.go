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

// siteChanged tells sc's table store of a mutation made to d in place: it
// follows d on to d, stamping the one change.
func siteChanged(sc *SearchScratch, d *Diagram, v int, insert bool, neighbors []int) {
	sc.Follow(d, d, func(stamp func(int, bool, []int)) { stamp(v, insert, neighbors) })
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
				siteChanged(&sc, d, v, false, nil)
			}
		} else {
			if err := d.Insert(v); err != nil {
				t.Fatal(err)
			}
			nb, err := d.Neighbors(v)
			if err != nil {
				t.Fatal(err)
			}
			siteChanged(&sc, d, v, true, nb)
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
			siteChanged(&idle, d, v, false, nil)
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
			siteChanged(&idle, d, v, true, nb)
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

// TestTableRingRebuildsInPlace: a scratch whose ring holds the tables of 200
// vertices with room to spare looks them up in 50 rounds, while between
// rounds sites are inserted beside them and sites their tables hold removed.
// A stale table is rebuilt over its predecessor, so after the first round,
// which writes them, the tail never moves and the ring never wraps, and
// every table served or built stays AppendKNN from the vertex, bit for bit.
func TestTableRingRebuildsInPlace(t *testing.T) {
	g, err := roadnet.GridNetwork(50, 50, testBounds, 0.2, 0.3, 56)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(57))
	d, err := Build(g, rng.Perm(g.NumVertices())[:300])
	if err != nil {
		t.Fatal(err)
	}
	const m, rounds = 4, 50
	vs := rng.Perm(g.NumVertices())[:200]
	var sc, oracle SearchScratch
	var site []int32
	var dist []float64
	tail := 0
	for round := 0; round < rounds; round++ {
		for _, u := range vs {
			var hit bool
			site, dist, _, _, hit = d.AppendVertexTable(u, m, site[:0], dist[:0], &sc)
			checkTable(t, d, &oracle, round, hit, u, m, site, dist)
			if round > 0 && (sc.tables.tail != tail || sc.tables.Stats().Wraps != 0) {
				t.Fatalf("round %d vertex %d: the tail moved %d → %d, the ring wrapped %d times", round, u, tail, sc.tables.tail, sc.tables.Stats().Wraps)
			}
		}
		if round == 0 {
			tail = sc.tables.tail
			if st := sc.tables.Stats(); tail != len(vs)*(1+m) || st.Entries <= tail {
				t.Fatalf("the first round wrote %d entries into a ring of %d, want %d and room to spare", tail, st.Entries, len(vs)*(1+m))
			}
		}
		for n := 0; n < 3; n++ {
			u := vs[rng.Intn(len(vs))]
			adj := g.AdjacentVertices(u)
			if v := adj[rng.Intn(len(adj))]; !d.IsSite(v) {
				if err := d.Insert(v); err != nil {
					t.Fatal(err)
				}
				nb, err := d.Neighbors(v)
				if err != nil {
					t.Fatal(err)
				}
				siteChanged(&sc, d, v, true, nb)
			}
			ids, _, _ := d.AppendKNN(roadnet.VertexPosition(vs[rng.Intn(len(vs))]), m, nil, nil, &oracle)
			v := ids[rng.Intn(len(ids))]
			if err := d.Remove(v); err != nil {
				t.Fatal(err)
			}
			siteChanged(&sc, d, v, false, nil)
		}
	}
	st := sc.tables.Stats()
	t.Logf("%d rounds of %d lookups: %d hits, %d stale tables rebuilt in place, tail at %d of %d entries", rounds, len(vs), st.Hits, st.Stale, tail, st.Entries)
	if st.Stale < rounds || st.Hits < uint64(rounds*len(vs)/2) || st.Absent != uint64(len(vs)) {
		t.Fatalf("%d hits, %d stale, %d absent: the rebuilds were not exercised", st.Hits, st.Stale, st.Absent)
	}
}

// TestTableStoreSharedByScratches: four scratches share one store of four
// rings. A table one of them builds is served to the others; the ring grows
// past one ring's entries to the store's most and no further, then wraps;
// its lookups are what the scratches asked for, split by outcome; and what
// every scratch serves stays AppendKNN from the vertex, bit for bit.
func TestTableStoreSharedByScratches(t *testing.T) {
	g, err := roadnet.GridNetwork(100, 100, testBounds, 0.2, 0.3, 54)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	d, err := Build(g, rng.Perm(g.NumVertices())[:1500])
	if err != nil {
		t.Fatal(err)
	}
	const m, rings, steps = 8, 4, 20000
	ring := g.NumVertices() * 2 / 3
	st := NewTableStore(rings, d)
	if s := st.Stats(); s.Max != rings*ring || s.Entries != 0 {
		t.Fatalf("a fresh store of %d rings of %d: %d entries of %d", rings, ring, s.Entries, s.Max)
	}
	scs := make([]SearchScratch, rings)
	for i := range scs {
		scs[i].ShareTables(st)
	}
	var oracle SearchScratch
	var site []int32
	var dist []float64
	builtBy := map[int]int{}
	hits, crossHits, checked := 0, 0, 0
	for step := 0; step < steps; step++ {
		i := step % rings
		u := rng.Intn(g.NumVertices())
		if step%3 == 0 {
			u = rng.Intn(200) // rows that are come back to
		}
		var hit bool
		site, dist, _, _, hit = d.AppendVertexTable(u, m, site[:0], dist[:0], &scs[i])
		if hit {
			hits++
			if builtBy[u] != i {
				crossHits++
			}
		} else {
			builtBy[u] = i
		}
		if hit || step%16 == 0 {
			checkTable(t, d, &oracle, step, hit, u, m, site, dist)
			checked++
		}
		if s := st.Stats(); s.Entries > s.Max {
			t.Fatalf("step %d: the ring holds %d entries, at most %d", step, s.Entries, s.Max)
		}
	}
	s := st.Stats()
	t.Logf("a ring of %d entries (%d a ring), wrapped %d times; %d hits (%d of another scratch's table), %d tables checked", s.Entries, ring, s.Wraps, hits, crossHits, checked)
	if s.Entries != s.Max || s.Wraps == 0 || crossHits < 1000 {
		t.Fatalf("a ring of %d of %d entries, %d wraps, %d hits on another scratch's tables", s.Entries, s.Max, s.Wraps, crossHits)
	}
	if s.Hits != uint64(hits) || s.Hits+s.Stale+s.Absent != steps {
		t.Fatalf("the store counted %d hits, %d stale and %d absent of %d lookups, %d served", s.Hits, s.Stale, s.Absent, steps, hits)
	}
}

// TestTableStoreMovedByOneScratch: scratch A moves the store it shares with
// B from one diagram to the next through a window that inserts a site at a
// vertex whose table both have been served, beside its first entry. B, which
// moves nothing itself, then gets a fresh table for that vertex at the new
// diagram, a search's, not the old one; at the old diagram it is served
// nothing and leaves nothing; and A is then served B's fresh table.
func TestTableStoreMovedByOneScratch(t *testing.T) {
	g, err := roadnet.GridNetwork(30, 30, testBounds, 0.2, 0.3, 58)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	d1, err := Build(g, rng.Perm(g.NumVertices())[:100])
	if err != nil {
		t.Fatal(err)
	}
	const m = 6
	u := 0
	for d1.IsSite(u) {
		u++
	}
	var a, b, oracle SearchScratch
	st := NewTableStore(2, d1)
	a.ShareTables(st)
	b.ShareTables(st)
	step := 0
	lookup := func(sc *SearchScratch, d *Diagram, wantHit bool) []int32 {
		t.Helper()
		step++
		site, dist, _, _, hit := d.AppendVertexTable(u, m, nil, nil, sc)
		if hit != wantHit {
			t.Fatalf("lookup %d: hit %v, want %v", step, hit, wantHit)
		}
		checkTable(t, d, &oracle, step, hit, u, m, site, dist)
		return site
	}
	old := lookup(&a, d1, false)
	lookup(&b, d1, true)

	d2 := d1.Branch()
	if err := d2.Insert(u); err != nil {
		t.Fatal(err)
	}
	nb, err := d2.Neighbors(u)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(nb, int(old[0])) {
		t.Fatalf("the site inserted at %d has neighbors %v, not its table's first entry %d", u, nb, old[0])
	}
	window := func(stamp func(int, bool, []int)) { stamp(u, true, nb) }
	if !a.Follow(d1, d2, window) {
		t.Fatal("A did not move the store it follows")
	}
	if b.Follow(d1, d2, window) {
		t.Fatal("B moved the store A had moved already")
	}
	if fresh := lookup(&b, d2, false); fresh[0] != int32(u) {
		t.Fatalf("B's table at the new diagram begins %v, not with the site inserted at %d", fresh, u)
	}
	lookup(&b, d1, false)
	lookup(&a, d2, true)
	if s := st.Stats(); s.Hits != 2 || s.Stale != 1 || s.Absent != 2 {
		t.Fatalf("the store counted %d hits, %d stale, %d absent; want 2, 1, 2", s.Hits, s.Stale, s.Absent)
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
