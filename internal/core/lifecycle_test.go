package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// lifecycleQuery is what the lifecycle tests drive on either metric.
type lifecycleQuery interface {
	Current() []int
	INS() []int
	Metrics() *metrics.Counters
	Epoch() uint64
	Refresh() ([]int, bool, error)
}

// pinnedFixture is one metric's side of a lifecycle test: a store, a query
// pinned to it that reports one home position, and the mutations, which
// differ by metric.
type pinnedFixture struct {
	st        *index.Store
	q         lifecycleQuery
	update    func() ([]int, error) // reports the home position
	insertAt  func() int            // inserts an object at home
	insertFar func() int            // inserts one far from home
	remove    func(id int)
	check     func(knn []int) // against brute force at home
}

// pinnedMetrics builds each metric's fixture for k, the store keeping
// logDepth ops (0: the default).
var pinnedMetrics = []struct {
	name    string
	fixture func(t *testing.T, k, logDepth int) *pinnedFixture
}{{"plane", planeFixture}, {"network", networkFixture}}

// planeFixture is 400 uniform objects, dense enough that Voronoi adjacency is
// local: an object at the far corner is provably irrelevant to a query at
// the other one.
func planeFixture(t *testing.T, k, logDepth int) *pinnedFixture {
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: workload.Uniform(400, pinnedBounds, 9), LogDepth: logDepth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	q, err := newPlaneOnStore(st, k, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	home, far := geom.Pt(105, 105), 0.0
	insert := func(p geom.Point) int {
		id, err := st.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	return &pinnedFixture{
		st: st, q: q,
		update:   func() ([]int, error) { return q.Update(home) },
		insertAt: func() int { return insert(geom.Pt(105, 106)) },
		insertFar: func() int {
			far++
			return insert(geom.Pt(840+far, 850))
		},
		remove: func(id int) {
			if err := st.Remove(id); err != nil {
				t.Fatal(err)
			}
		},
		check: func(knn []int) { checkKNNAgainstBrute(t, st.Current().Plane(), home, knn, k) },
	}
}

// networkFixture is a 24x24 street grid with every seventh vertex a site and
// home on vertex 1, next to a corner; far sites go to the opposite corner.
func networkFixture(t *testing.T, k, logDepth int) *pinnedFixture {
	g, err := workload.Network(24, pinnedBounds, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sites []int
	for v := 0; v < g.NumVertices(); v += 7 {
		sites = append(sites, v)
	}
	st, err := index.NewStore(index.Config{Network: g, NetworkSites: sites, LogDepth: logDepth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	q, err := newNetOnStore(st, k, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	home, far := roadnet.VertexPosition(1), g.NumVertices()-2
	insert := func(v int) int {
		if _, err := st.Apply([]index.Mutation{{Network: true, Insert: true, ID: v}}); err != nil {
			t.Fatal(err)
		}
		return v
	}
	return &pinnedFixture{
		st: st, q: q,
		update:   func() ([]int, error) { return q.Update(home) },
		insertAt: func() int { return insert(1) },
		insertFar: func() int {
			for st.Current().Network().IsSite(far) {
				far--
			}
			return insert(far)
		},
		remove: func(v int) {
			if _, err := st.Apply([]index.Mutation{{Network: true, ID: v}}); err != nil {
				t.Fatal(err)
			}
		},
		check: func(knn []int) { checkNetKNN(t, st.Current().Network(), home, knn, k) },
	}
}

// TestPinnedLazyInvalidation walks a pinned query on either metric through
// its lifecycle at one home position. Far-away inserts and removals leave
// the client state valid: the next Update re-pins without recomputing. An
// insert at home invalidates it, and the next Update recomputes with the
// new object nearest. Removing that object invalidates it again, and Refresh
// recomputes at once, without it; an idle Refresh does nothing; an insert at
// home repaired by Refresh leads the answer at once. Close releases a pin
// the query still holds on a superseded snapshot.
func TestPinnedLazyInvalidation(t *testing.T) {
	for _, m := range pinnedMetrics {
		t.Run(m.name, func(t *testing.T) {
			f := m.fixture(t, 2, 0)
			recomputed := func(what string, knn []int, want int) {
				t.Helper()
				f.check(knn)
				if got := f.q.Metrics().Recomputations; got != want {
					t.Fatalf("%s: %d recomputations, want %d", what, got, want)
				}
				if f.q.Epoch() != f.st.Epoch() {
					t.Fatalf("%s: the query is pinned at epoch %d, the store at %d", what, f.q.Epoch(), f.st.Epoch())
				}
			}
			update := func(what string, recomputations int) []int {
				t.Helper()
				knn, err := f.update()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				recomputed(what, knn, recomputations)
				return knn
			}
			refresh := func(what string, recomputations int) []int {
				t.Helper()
				knn, ran, err := f.q.Refresh()
				if err != nil || !ran {
					t.Fatalf("%s: Refresh = (%v, %v), want a recomputation", what, ran, err)
				}
				recomputed(what, knn, recomputations)
				return knn
			}
			update("first placement", 1)
			f.remove(f.insertFar())
			update("after far mutations", 1)

			id := f.insertAt()
			if knn := update("after an insert at home", 2); knn[0] != id {
				t.Fatalf("kNN %v after an insert at home, want it led by %d", knn, id)
			}
			f.remove(id)
			if knn := refresh("after removing the nearest", 3); slices.Contains(knn, id) {
				t.Fatalf("kNN %v still holds the removed object %d", knn, id)
			}
			if _, ran, _ := f.q.Refresh(); ran {
				t.Fatal("idle Refresh recomputed")
			}
			id = f.insertAt()
			if knn := refresh("after a second insert at home", 4); knn[0] != id {
				t.Fatalf("refreshed kNN %v, want it led by %d", knn, id)
			}
		})
	}
}

// TestPinnedLogOverflowConservative: a query lagging past the mutation log
// must recompute rather than trust stale guard sets, on either metric.
func TestPinnedLogOverflowConservative(t *testing.T) {
	for _, m := range pinnedMetrics {
		t.Run(m.name, func(t *testing.T) {
			f := m.fixture(t, 3, 2)
			if _, err := f.update(); err != nil {
				t.Fatal(err)
			}
			recomps := f.q.Metrics().Recomputations
			// Five far-away inserts overflow the 2-deep log; even though none
			// affects the query, it cannot prove that and must recompute.
			for i := 0; i < 5; i++ {
				f.insertFar()
			}
			knn, err := f.update()
			if err != nil {
				t.Fatal(err)
			}
			f.check(knn)
			if got := f.q.Metrics().Recomputations; got != recomps+1 {
				t.Errorf("recomputations = %d, want %d (conservative invalidation)", got, recomps+1)
			}
		})
	}
}

// failCase is one metric's way to make a recomputation fail: a pinned query
// whose answer becomes impossible when doomed is removed and possible again
// after heal.
type failCase struct {
	q            lifecycleQuery
	update       func() ([]int, error) // reports the query's position
	doomed       int
	remove, heal func()
	check        func(knn []int) // the answer after heal
	failed       func(error) bool
}

// TestFailedRecomputeInvalidates: a recomputation that fails leaves no
// guard set behind, on either metric. The plane session loses an object of
// the three it needs; the network session, on an island, the island's only
// site. Every Update and Refresh then fails and leaves the state empty,
// until an insert makes the answer possible again, and the session answers
// correctly without the removed object. On the network a query also wanders
// in and out of the island, and a recomputation that kept a prefix fails
// the same way (wanderIntoIsland). On the plane, a validation's proof that
// its hint is the nearest object does not outlive a search that fails
// (planeProofDies).
func TestFailedRecomputeInvalidates(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) failCase
	}{{"plane", planeFailCase}, {"network", networkFailCase}} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.open(t)
			c.remove()
			for i := 0; i < 2; i++ {
				if knn, err := c.update(); !c.failed(err) || len(knn) != 0 {
					t.Fatalf("update %d after the removal = %v, %v; want the failure and no kNN", i, knn, err)
				}
				if cur := c.q.Current(); len(cur) != 0 || len(c.q.INS()) != 0 {
					t.Fatalf("state after a failed recomputation: kNN %v, I(R) %v", cur, c.q.INS())
				}
			}
			if knn, recomputed, err := c.q.Refresh(); !c.failed(err) || recomputed || len(knn) != 0 {
				t.Fatalf("Refresh after the removal = %v, %v, %v; want the failure", knn, recomputed, err)
			}
			c.heal()
			knn, err := c.update()
			if err != nil {
				t.Fatalf("update after the insert: %v", err)
			}
			if slices.Contains(knn, c.doomed) {
				t.Fatalf("kNN %v names the removed object %d", knn, c.doomed)
			}
			c.check(knn)
		})
	}
	t.Run("plane proof", planeProofDies)
}

// planeProofDies: a recompute verdict proves its hint the nearest object,
// and the search it feeds fails — Update's cannot, as it reads the index
// the verdict was taken on, so the test asks the search of the index two
// removals later. An insert nearer than the old hint, which stays live,
// heals the index; the Refresh that follows must walk from the old hint
// to the new nearest object, not start from the old hint on the strength
// of a proof about an index gone by.
func planeProofDies(t *testing.T) {
	a, b, g := geom.Pt(100, 100), geom.Pt(300, 100), geom.Pt(100, 260)
	st, err := index.NewStore(index.Config{Bounds: testBounds, Objects: []geom.Point{a, b, g}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	q, err := newPlaneOnStore(st, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if knn, err := q.Update(geom.Pt(150, 100)); err != nil || !slices.Equal(knn, []int{0, 1}) {
		t.Fatalf("first update = %v, %v; want [0 1]", knn, err)
	}
	// Update's first steps at pos, where the guard g is nearer than b: a
	// recompute verdict, with a, in R, proven the nearest object.
	pos := geom.Pt(100, 150)
	q.last = pos
	if _, knnValid, rValid, nearest := q.measure(pos); knnValid || rValid || !nearest || q.hint != 0 {
		t.Fatalf("verdicts at %v: kNN %v, R %v, nearest %v, hint %d; want a recompute from object 0, proven nearest", pos, knnValid, rValid, nearest, q.hint)
	}
	for _, id := range []int{1, 2} {
		if err := st.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	q.Sync()
	if err := q.recomputeFrom(pos, true); err == nil || !strings.Contains(err.Error(), "exceeds object count") {
		t.Fatalf("search with one object left for k = 2: %v, want the failure", err)
	}
	n, err := st.Insert(geom.Pt(100, 140))
	if err != nil {
		t.Fatal(err)
	}
	knn, recomputed, err := q.Refresh()
	if err != nil || !recomputed {
		t.Fatalf("Refresh after the insert = %v, %v, %v", knn, recomputed, err)
	}
	checkKNNAgainstBrute(t, st.Current().Plane(), pos, knn, 2)
	if knn[0] != n {
		t.Fatalf("kNN %v starts at the old hint 0, not at the nearest object %d", knn, n)
	}
}

// planeFailCase is three objects and k = 3: removing one leaves too few.
func planeFailCase(t *testing.T) failCase {
	st, err := index.NewStore(index.Config{Bounds: testBounds, Objects: []geom.Point{geom.Pt(100, 100), geom.Pt(200, 100), geom.Pt(100, 200)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	q, err := newPlaneOnStore(st, 3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.Pt(120, 120)
	knn, err := q.Update(pos)
	if err != nil || len(knn) != 3 {
		t.Fatalf("first update = %v, %v", knn, err)
	}
	doomed := knn[0]
	return failCase{
		q: q, doomed: doomed,
		update: func() ([]int, error) { return q.Update(pos) },
		remove: func() {
			if err := st.Remove(doomed); err != nil {
				t.Fatal(err)
			}
		},
		heal: func() {
			if _, err := st.Insert(geom.Pt(150, 150)); err != nil {
				t.Fatal(err)
			}
		},
		check:  func(knn []int) { checkKNNAgainstBrute(t, st.Current().Plane(), pos, knn, 3) },
		failed: func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeds object count") },
	}
}

// networkFailCase is a k = 1 session on the island of twoIslands, whose one
// site goes and another comes.
func networkFailCase(t *testing.T) failCase {
	d, island := twoIslands(t)
	wanderIntoIsland(t, d, island)
	st, err := index.NewStore(index.Config{Network: d.Graph(), NetworkSites: d.Sites()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	q, err := newNetOnStore(st, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pos := roadnet.VertexPosition(island[0])
	if knn, err := q.Update(pos); err != nil || len(knn) != 1 || knn[0] != island[1] {
		t.Fatalf("k=1 on the island = (%v, %v), want [%d]", knn, err, island[1])
	}
	return failCase{
		q: q, doomed: island[1],
		update: func() ([]int, error) { return q.Update(pos) },
		remove: func() {
			if _, err := st.Apply([]index.Mutation{{Network: true, ID: island[1]}}); err != nil {
				t.Fatal(err)
			}
		},
		heal: func() {
			if _, err := st.Apply([]index.Mutation{{Network: true, Insert: true, ID: island[2]}}); err != nil {
				t.Fatal(err)
			}
		},
		check: func(knn []int) {
			if len(knn) != 1 || knn[0] != island[2] {
				t.Fatalf("k=1 after the island got a site again = %v, want [%d]", knn, island[2])
			}
		},
		failed: func(err error) bool { return errors.Is(err, ErrDisconnected) },
	}
}

// wanderIntoIsland: a query that wanders into a component with fewer than k
// sites fails with ErrDisconnected and is left invalidated — not with its
// kNN set aliasing the buffer the failed search overwrote — so it answers
// correctly again as soon as it is back, and a failed Refresh leaves it the
// same way. So does a failed recomputation that kept a prefix of hits.
func wanderIntoIsland(t *testing.T, d *netvor.Diagram, island []int) {
	t.Helper()
	const k = 3
	q, err := NewNetworkQuery(d, k, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	mainland := []roadnet.Position{
		roadnet.VertexPosition(8), {U: 8, V: 9, T: 0.4}, roadnet.VertexPosition(22), {U: 22, V: 28, T: 0.9},
	}
	stranded := []roadnet.Position{
		roadnet.VertexPosition(island[0]), {U: island[0], V: island[1], T: 0.5}, roadnet.VertexPosition(island[2]),
	}
	mustFail := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("%s = %v, want ErrDisconnected", what, err)
		}
		if cur := q.Current(); len(cur) != 0 {
			t.Fatalf("%s left kNN %v behind; want the query invalidated", what, cur)
		}
	}
	for round := 0; round < 3; round++ {
		for _, pos := range mainland {
			knn, err := q.Update(pos)
			if err != nil {
				t.Fatal(err)
			}
			checkNetKNN(t, d, pos, knn, k)
		}
		for _, pos := range stranded {
			_, err := q.Update(pos)
			mustFail("Update on the island", err)
		}
		// Eager repair at the stranded position fails the same way.
		_, _, err := q.Refresh()
		mustFail("Refresh on the island", err)
	}

	// The same failure with a kept prefix, as a continued recomputation has
	// it. (No Update gets there: the guard subnetwork lies in the query's
	// component, so a validation that began can always reach the k sites of
	// R.) The query must not end up serving the prefix it kept.
	if _, err := q.Update(mainland[0]); err != nil {
		t.Fatal(err)
	}
	hits := hitCursor{search: q.d.BeginSearch(stranded[0], q.scratch())}
	mustFail("refetch with a kept prefix on the island", q.refetch(&hits, 1))
	if len(q.Prefetched()) != 0 || len(q.INS()) != 0 {
		t.Fatalf("failed refetch left R %v, I(R) %v behind", q.Prefetched(), q.INS())
	}
}
