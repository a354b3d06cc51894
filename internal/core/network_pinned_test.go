package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

func pinnedNetworkStore(t *testing.T) (*index.Store, *roadnet.Graph) {
	t.Helper()
	g, err := workload.Network(16, pinnedBounds, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	return st, g
}

// TestNetworkQueryPinnedLifecycle: a network query kept on a store moves
// across site mutations, recomputes when its guard cells are disturbed, and
// offers no way to mutate the index itself.
func TestNetworkQueryPinnedLifecycle(t *testing.T) {
	st, g := pinnedNetworkStore(t)
	defer st.Close()

	q, err := newNetOnStore(st, 3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	home := rng.Intn(g.NumVertices())
	for st.Current().Network().IsSite(home) {
		home = rng.Intn(g.NumVertices())
	}
	if _, err := q.Update(roadnet.VertexPosition(home)); err != nil {
		t.Fatal(err)
	}
	if q.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0", q.Epoch())
	}
	// Mutations go through the store; the query is read-only.
	if _, ok := any(q).(interface{ InsertSite(int) error }); ok {
		t.Fatal("a network query exposes InsertSite")
	}
	if _, ok := any(q).(interface{ RemoveSite(int) error }); ok {
		t.Fatal("a network query exposes RemoveSite")
	}

	// Inserting a site at the session's own vertex must reach its kNN at
	// the next update (dist 0 beats everything).
	if _, err := st.Apply([]index.Mutation{{Network: true, Insert: true, ID: home}}); err != nil {
		t.Fatal(err)
	}
	knn, err := q.Update(roadnet.VertexPosition(home))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(knn, home) {
		t.Fatalf("kNN %v misses the site inserted at the query position %d", knn, home)
	}
	if q.Epoch() != st.Epoch() {
		t.Fatalf("query epoch %d lags store epoch %d after Update", q.Epoch(), st.Epoch())
	}

	// Removing the session's nearest site must evict it.
	if _, err := st.Apply([]index.Mutation{{Network: true, ID: home}}); err != nil {
		t.Fatal(err)
	}
	knn, err = q.Update(roadnet.VertexPosition(home))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(knn, home) {
		t.Fatalf("kNN %v still contains the removed site %d", knn, home)
	}
}

// TestNetworkQueryRefreshEager: Refresh recomputes an invalidated session
// at its last position without a location update — the eager-repair hook
// the push pipeline uses.
func TestNetworkQueryRefreshEager(t *testing.T) {
	st, _ := pinnedNetworkStore(t)
	defer st.Close()

	q, err := newNetOnStore(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	home := 0
	for st.Current().Network().IsSite(home) {
		home++
	}
	if _, err := q.Update(roadnet.VertexPosition(home)); err != nil {
		t.Fatal(err)
	}
	recomputes := q.Metrics().Recomputations

	if _, err := st.Apply([]index.Mutation{{Network: true, Insert: true, ID: home}}); err != nil {
		t.Fatal(err)
	}
	knn, recomputed, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("Refresh did not recompute after a site insert at the query position")
	}
	if q.Metrics().Recomputations != recomputes+1 {
		t.Fatalf("recomputations = %d, want %d", q.Metrics().Recomputations, recomputes+1)
	}
	if !slices.Contains(knn, home) {
		t.Fatalf("refreshed kNN %v misses the inserted site %d", knn, home)
	}
	// A second Refresh with no new epochs is a no-op.
	if _, recomputed, _ := q.Refresh(); recomputed {
		t.Fatal("idle Refresh recomputed")
	}
}

// TestNetworkQueryLazySkip: a site mutation far outside the session's
// guard cells must NOT invalidate it — the lazy-invalidation filter at
// work on the network side. The test places the session in one corner of
// a large grid and mutates the opposite corner.
func TestNetworkQueryLazySkip(t *testing.T) {
	g, err := workload.Network(24, pinnedBounds, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sites spread deterministically so both corners have plenty.
	var sites []int
	for v := 0; v < g.NumVertices(); v += 7 {
		sites = append(sites, v)
	}
	st, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q, err := newNetOnStore(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := q.Update(roadnet.VertexPosition(0)); err != nil { // corner vertex
		t.Fatal(err)
	}
	recomputes := q.Metrics().Recomputations

	// Mutate the far corner: vertex ids near NumVertices-1 sit rows away.
	far := g.NumVertices() - 2
	for st.Current().Network().IsSite(far) {
		far--
	}
	if _, err := st.Apply([]index.Mutation{{Network: true, Insert: true, ID: far}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]index.Mutation{{Network: true, ID: far}}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(roadnet.VertexPosition(0)); err != nil {
		t.Fatal(err)
	}
	if got := q.Metrics().Recomputations; got != recomputes {
		t.Fatalf("far-corner mutations forced %d recomputations; the lazy filter must skip them", got-recomputes)
	}
	if q.Epoch() != st.Epoch() {
		t.Fatalf("query did not re-pin: epoch %d vs store %d", q.Epoch(), st.Epoch())
	}
}
