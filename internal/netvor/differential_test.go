package netvor

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// diffGraph builds the random planar road network the differential tests
// mutate sites on.
func diffGraph(t *testing.T, n int, seed int64) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.RandomPlanarNetwork(n, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), 0.5, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkAgainstRebuild compares the incrementally maintained diagram to a
// fresh Build over the same site set: per-vertex owner/dist labels,
// per-site neighbor lists, the site list, and kNN answers from a few
// probe positions must all match exactly (both use the same lower-site-id
// tie break, so equality is exact, not approximate).
func checkAgainstRebuild(t *testing.T, step int, d *Diagram, g *roadnet.Graph, probes []roadnet.Position) {
	t.Helper()
	ref, err := Build(g, d.Sites())
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	if !sameIntSlice(d.Sites(), ref.Sites()) {
		t.Fatalf("step %d: sites %v, rebuild says %v", step, d.Sites(), ref.Sites())
	}
	for v := 0; v < g.NumVertices(); v++ {
		go1, gd1 := d.Owner(v)
		go2, gd2 := ref.Owner(v)
		if go1 != go2 || gd1 != gd2 {
			t.Fatalf("step %d: owner(%d) = (%d, %g), rebuild says (%d, %g)", step, v, go1, gd1, go2, gd2)
		}
	}
	for _, s := range d.Sites() {
		ns, err := d.Neighbors(s)
		if err != nil {
			t.Fatalf("step %d: neighbors(%d): %v", step, s, err)
		}
		want, err := ref.Neighbors(s)
		if err != nil {
			t.Fatalf("step %d: rebuild neighbors(%d): %v", step, s, err)
		}
		if !sameIntSlice(ns, want) {
			t.Fatalf("step %d: neighbors(%d) = %v, rebuild says %v", step, s, ns, want)
		}
	}
	for _, pos := range probes {
		got, gotDS := d.KNNWithDistances(pos, 4)
		want, wantDS := ref.KNNWithDistances(pos, 4)
		if !sameIntSlice(got, want) {
			t.Fatalf("step %d: KNN(%v) = %v, rebuild says %v", step, pos, got, want)
		}
		for i := range gotDS {
			if gotDS[i] != wantDS[i] {
				t.Fatalf("step %d: KNN(%v) dist[%d] = %g, rebuild says %g", step, pos, i, gotDS[i], wantDS[i])
			}
		}
	}
}

func sameIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coincidentGrid builds a side x side grid with weights 1-3, a third of them
// zero instead, drawn from rng.
func coincidentGrid(t *testing.T, rng *rand.Rand, side int) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph()
	for i := 0; i < side*side; i++ {
		g.AddVertex(geom.Pt(float64(i%side)*10, float64(i/side)*10))
	}
	join := func(u, v int) {
		w := float64(1 + rng.Intn(3))
		if rng.Intn(3) == 0 {
			w = 0
		}
		if err := g.AddEdgeWeight(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < side*side; i++ {
		if i%side < side-1 {
			join(i, i+1)
		}
		if i/side < side-1 {
			join(i, i+side)
		}
	}
	return g
}

// TestDifferentialCoincidentSites is TestDifferentialSiteMutations on a grid
// a third of whose edges have weight zero, so that sites keep landing at
// distance zero from one another — joining a lower id, a higher id, a chain
// of them, and leaving again. Every site must own its own vertex whatever
// its neighbours' ids, and the incrementally repaired labels, adjacency and
// kNN answers must equal a fresh Build's: a coincident site hands over the
// territory the other one reached through its vertex, and gives it back.
func TestDifferentialCoincidentSites(t *testing.T) {
	const side = 9
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := coincidentGrid(t, rng, side)
		d, err := Build(g, rng.Perm(side * side)[:6])
		if err != nil {
			t.Fatal(err)
		}
		probes := []roadnet.Position{
			roadnet.VertexPosition(rng.Intn(side * side)),
			roadnet.VertexPosition(rng.Intn(side * side)),
		}
		coincident := 0
		for step := 0; step < 120; step++ {
			if d.Len() > 3 && rng.Intn(5) < 2 {
				victim := d.Sites()[rng.Intn(d.Len())]
				if err := d.Remove(victim); err != nil {
					t.Fatalf("seed %d step %d: remove %d: %v", seed, step, victim, err)
				}
			} else {
				v := rng.Intn(side * side)
				for d.IsSite(v) {
					v = rng.Intn(side * side)
				}
				if _, dist := d.Owner(v); dist == 0 {
					coincident++
				}
				if err := d.Insert(v); err != nil {
					t.Fatalf("seed %d step %d: insert %d: %v", seed, step, v, err)
				}
			}
			for _, s := range d.Sites() {
				if o, dist := d.Owner(s); o != s || dist != 0 {
					t.Fatalf("seed %d step %d: site %d has owner (%d, %g)", seed, step, s, o, dist)
				}
			}
			checkAgainstRebuild(t, step, d, g, probes)
		}
		if coincident < 10 {
			t.Errorf("seed %d: only %d inserts landed at distance 0 from a site", seed, coincident)
		}
	}
}

// TestDifferentialSiteMutations drives a random site insert/delete
// sequence through the incrementally maintained diagram and checks, at
// every step, that its full state equals a diagram rebuilt from scratch —
// the network twin of the rtree differential property test.
func TestDifferentialSiteMutations(t *testing.T) {
	const (
		vertices = 300
		steps    = 150
	)
	g := diffGraph(t, vertices, 7)
	rng := rand.New(rand.NewSource(99))

	initial := rng.Perm(vertices)[:12]
	d, err := Build(g, initial)
	if err != nil {
		t.Fatal(err)
	}
	probes := []roadnet.Position{
		roadnet.VertexPosition(rng.Intn(vertices)),
		roadnet.VertexPosition(rng.Intn(vertices)),
		roadnet.VertexPosition(rng.Intn(vertices)),
	}

	for step := 0; step < steps; step++ {
		if d.Len() > 4 && rng.Intn(3) == 0 {
			victim := d.Sites()[rng.Intn(d.Len())]
			if err := d.Remove(victim); err != nil {
				t.Fatalf("step %d: remove %d: %v", step, victim, err)
			}
		} else {
			v := rng.Intn(vertices)
			for d.IsSite(v) {
				v = rng.Intn(vertices)
			}
			if err := d.Insert(v); err != nil {
				t.Fatalf("step %d: insert %d: %v", step, v, err)
			}
		}
		checkAgainstRebuild(t, step, d, g, probes)
	}
}

// TestDifferentialBranchChain mutates through a chain of Branch versions
// (the store's publication path) while concurrent readers hammer every
// pinned predecessor, letting -race prove the page sharing is write-free
// and the frozen versions provably never change.
func TestDifferentialBranchChain(t *testing.T) {
	const (
		vertices = 250
		epochs   = 60
	)
	g := diffGraph(t, vertices, 11)
	rng := rand.New(rand.NewSource(5))
	d, err := Build(g, rng.Perm(vertices)[:10])
	if err != nil {
		t.Fatal(err)
	}
	probes := []roadnet.Position{
		roadnet.VertexPosition(3),
		roadnet.VertexPosition(vertices / 2),
		roadnet.VertexPosition(vertices - 1),
	}
	answers := func(d *Diagram) [][]int {
		out := make([][]int, len(probes))
		for i, pos := range probes {
			out[i] = d.KNN(pos, 3)
		}
		return out
	}

	type pin struct {
		d    *Diagram
		want [][]int
	}
	var pins []pin
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()

	cur := d
	for e := 0; e < epochs; e++ {
		pinned := cur
		pins = append(pins, pin{d: pinned, want: answers(pinned)})
		wg.Add(1)
		go func(p *Diagram, pos roadnet.Position) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.KNN(pos, 3)
					p.INS(p.Sites()[:2])
				}
			}
		}(pinned, probes[e%len(probes)])

		cur = cur.Branch()
		if err := pinned.Insert(0); err != ErrFrozen {
			t.Fatalf("epoch %d: mutating a frozen diagram returned %v, want ErrFrozen", e, err)
		}
		// A couple of mutations per epoch, mirroring a store batch.
		for m := 0; m < 2; m++ {
			if cur.Len() > 4 && rng.Intn(3) == 0 {
				if err := cur.Remove(cur.Sites()[rng.Intn(cur.Len())]); err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
			} else {
				v := rng.Intn(vertices)
				for cur.IsSite(v) {
					v = rng.Intn(vertices)
				}
				if err := cur.Insert(v); err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
			}
		}
		checkAgainstRebuild(t, e, cur, g, probes)
	}

	// Every pinned version must be provably unchanged by the mutations
	// that came after it.
	for i, p := range pins {
		got := answers(p.d)
		for j := range got {
			if !sameIntSlice(got[j], p.want[j]) {
				t.Fatalf("pinned version %d changed: probe %d = %v, was %v", i, j, got[j], p.want[j])
			}
		}
	}
}

// TestBranchIsSublinear sanity-checks the copy-on-write accounting: a
// fresh branch has copied no label pages, and a single site mutation
// copies only the pages its relabeled territory touches.
func TestBranchIsSublinear(t *testing.T) {
	g, err := roadnet.GridNetwork(64, 64, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), 0.2, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	sites := rng.Perm(g.NumVertices())[:64]
	d, err := Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	b := d.Branch()
	if copied, _ := b.ShareStats(); copied != 0 {
		t.Fatalf("fresh branch copied %d pages, want 0", copied)
	}
	v := 0
	for b.IsSite(v) {
		v++
	}
	if err := b.Insert(v); err != nil {
		t.Fatal(err)
	}
	if copied, total := b.ShareStats(); copied == 0 || copied == total {
		t.Fatalf("one insert after branch copied %d of %d pages; want a strict subset", copied, total)
	}
	// Sorted site lists survive churn (the sorted-insert bookkeeping).
	if !sort.IntsAreSorted(b.Sites()) {
		t.Fatalf("branch sites not sorted: %v", b.Sites())
	}
}
