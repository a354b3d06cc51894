package netvor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/roadnet"
)

// TestTableCacheBookkeepingStaysBounded drives 100,000 site mutations through
// a cache whose ring holds about two hundred tables, with a few lookups
// between them: the invalidation stamps never outnumber the sites touched
// while the ring turned over twice, the directory never names more than two
// turns' tables, and what the cache serves stays AppendKNN from the vertex,
// bit for bit.
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
			site, dist, _, _, hit = d.AppendVertexTable(u, m, d, 0, site[:0], dist[:0], &sc)
			if hit {
				hits++
			}
			if hit || step%16 == 0 {
				ids, ds, _ := d.AppendKNN(roadnet.VertexPosition(u), m, nil, nil, &oracle)
				got := make([]int, len(site))
				for i, s := range site {
					got[i] = int(s)
				}
				if !slices.Equal(got, ids) || !slices.Equal(dist, ds) {
					t.Fatalf("step %d vertex %d (hit %v): table %v %v, the search reports %v %v", step, u, hit, got, dist, ids, ds)
				}
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
