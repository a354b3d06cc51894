package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
	"repro/internal/rtree"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

var pinnedBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// TestPinnedMatchesRawUnderMutations drives a snapshot-pinned query and a
// raw-index query through the same trajectory while the store (and,
// mirrored, the raw index) churns objects; answers must agree exactly at
// every step. The raw reference applies the engine-identical invalidation
// rule: Invalidate when a mutation can affect the guard sets, recompute at
// the next update.
func TestPinnedMatchesRawUnderMutations(t *testing.T) {
	pts := workload.Uniform(300, pinnedBounds, 11)
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: pts})
	if err != nil {
		t.Fatal(err)
	}
	rawIx, _, err := vortree.Build(pinnedBounds, 16, pts)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := NewPlaneQueryPinned(st, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	ref, err := NewPlaneQuery(rawIx, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}

	traj := trajectory.RandomWaypoint(pinnedBounds, 80, 10, 3)
	var inserted []int
	mutate := func(step int) {
		if step%2 == 0 && len(inserted) > 4 {
			id := inserted[0]
			inserted = inserted[1:]
			if err := st.Remove(id); err != nil {
				t.Fatal(err)
			}
			if ref.UsesObject(id) {
				ref.Invalidate()
			}
			if err := rawIx.Remove(id); err != nil {
				t.Fatal(err)
			}
			return
		}
		p := geom.Pt(float64((step*97)%1000), float64((step*61)%1000))
		id, err := st.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := rawIx.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if rid != id {
			t.Fatalf("step %d: store id %d, raw id %d", step, id, rid)
		}
		nb, nbErr := rawIx.Neighbors(id)
		if nbErr != nil || ref.AffectedByInsert(id, p, nb) {
			ref.Invalidate()
		}
		inserted = append(inserted, id)
	}

	for step, pos := range traj {
		mutate(step)
		got, err := pinned.Update(pos)
		if err != nil {
			t.Fatalf("step %d pinned: %v", step, err)
		}
		want, err := ref.Update(pos)
		if err != nil {
			t.Fatalf("step %d raw: %v", step, err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: pinned %v, raw %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: pinned %v, raw %v", step, got, want)
			}
		}
	}
	if pinned.Epoch() != st.Epoch() {
		t.Errorf("pinned epoch %d, store epoch %d", pinned.Epoch(), st.Epoch())
	}
	if st.LiveSnapshots() != 1 { // query re-pinned to the current snapshot
		t.Errorf("live snapshots = %d, want 1", st.LiveSnapshots())
	}
	// One more mutation: the store publishes a new version while the
	// dormant query still pins the old one...
	if _, err := st.Insert(geom.Pt(777, 777)); err != nil {
		t.Fatal(err)
	}
	if st.LiveSnapshots() != 2 {
		t.Errorf("live snapshots with lagging query = %d, want 2", st.LiveSnapshots())
	}
	// ...until Close releases the pin and the old version is collectable.
	pinned.Close()
	if st.LiveSnapshots() != 1 {
		t.Errorf("live snapshots after query close = %d, want 1", st.LiveSnapshots())
	}
}

// TestPinnedLazyInvalidation checks that a far-away insert does not reset
// the client state (no extra recomputation), while an insert at the query
// position does.
func TestPinnedLazyInvalidation(t *testing.T) {
	// Dense enough that Voronoi adjacency is local: a far-corner insert is
	// then provably irrelevant to a query at the opposite corner.
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: workload.Uniform(400, pinnedBounds, 9)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPlaneQueryPinned(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	pos := geom.Pt(105, 105)
	if _, err := q.Update(pos); err != nil {
		t.Fatal(err)
	}
	recomps := q.Metrics().Recomputations

	// Far corner insert: cannot affect R or I(R) of a query at (105,105).
	if _, err := st.Insert(geom.Pt(850, 850)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(pos); err != nil {
		t.Fatal(err)
	}
	if got := q.Metrics().Recomputations; got != recomps {
		t.Errorf("far insert caused recomputation (%d -> %d)", recomps, got)
	}
	if q.Epoch() != st.Epoch() {
		t.Errorf("query did not re-pin: epoch %d vs %d", q.Epoch(), st.Epoch())
	}

	// Insert right at the query position: must invalidate and become NN.
	id, err := st.Insert(geom.Pt(105, 106))
	if err != nil {
		t.Fatal(err)
	}
	knn, err := q.Update(pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Metrics().Recomputations; got != recomps+1 {
		t.Errorf("near insert: recomputations %d, want %d", got, recomps+1)
	}
	if len(knn) == 0 || knn[0] != id {
		t.Errorf("knn after near insert = %v, want leading %d", knn, id)
	}
}

// TestPinnedLogOverflowConservative: a query lagging past the mutation log
// must recompute rather than trust stale guard sets.
func TestPinnedLogOverflowConservative(t *testing.T) {
	st, err := index.NewStore(index.Config{
		Bounds:   pinnedBounds,
		Objects:  workload.Uniform(50, pinnedBounds, 5),
		LogDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPlaneQueryPinned(st, 3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	pos := geom.Pt(500, 500)
	if _, err := q.Update(pos); err != nil {
		t.Fatal(err)
	}
	recomps := q.Metrics().Recomputations
	// Five far-away inserts overflow the 2-deep log; even though none
	// affects the query, it cannot prove that and must recompute.
	for i := 0; i < 5; i++ {
		if _, err := st.Insert(geom.Pt(10+float64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Update(pos); err != nil {
		t.Fatal(err)
	}
	if got := q.Metrics().Recomputations; got != recomps+1 {
		t.Errorf("recomputations = %d, want %d (conservative invalidation)", got, recomps+1)
	}
}

func TestPinnedReadOnly(t *testing.T) {
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: workload.Uniform(20, pinnedBounds, 1)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPlaneQueryPinned(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.InsertObject(geom.Pt(1, 1)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("InsertObject on pinned query: %v", err)
	}
	if err := q.RemoveObject(0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("RemoveObject on pinned query: %v", err)
	}

	g, err := roadnet.GridNetwork(5, 5, pinnedBounds, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	netSt, err := index.NewStore(index.Config{Network: g, NetworkSites: []int{0, 6, 12, 18, 24}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlaneQueryPinned(netSt, 2, 1.6); err == nil {
		t.Error("plane query on network-only store succeeded")
	}
	nq, err := NewNetworkQueryPinned(netSt, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nq.Update(roadnet.VertexPosition(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetworkQueryPinned(st, 2, 1.6); err == nil {
		t.Error("network query on plane-only store succeeded")
	}
}

// TestSharedScratchDoesNotPinSupersededSnapshot: a shard's scratch outlives
// every snapshot its sessions search. After a search, a Store.Apply and the
// session's re-pin, nothing the idle scratch or the session holds may keep
// the superseded index version reachable (the frontier-level half of this
// is rtree's TestIteratorReleaseUnpinsSupersededNodes).
func TestSharedScratchDoesNotPinSupersededSnapshot(t *testing.T) {
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: workload.Uniform(2000, pinnedBounds, 13)})
	if err != nil {
		t.Fatal(err)
	}
	var sc vortree.SearchScratch
	q, err := NewPlaneQueryPinned(st, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.UseScratch(&sc)
	if _, err := q.Update(geom.Pt(100, 100)); err != nil { // first placement: R-tree descent
		t.Fatal(err)
	}
	collected := make(chan struct{}, 1)
	runtime.SetFinalizer(q.ix.Tree(), func(*rtree.Tree) { collected <- struct{}{} })
	if _, err := st.Insert(geom.Pt(900, 900)); err != nil {
		t.Fatal(err)
	}
	q.Sync() // re-pins; a far insert leaves the client state valid, so no new search runs
	if q.Metrics().Recomputations != 1 {
		t.Fatalf("setup: the re-pin recomputed (%d recomputations)", q.Metrics().Recomputations)
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("superseded snapshot's R-tree still reachable after re-pin and GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
