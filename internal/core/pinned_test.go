package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

var pinnedBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// TestPinnedMatchesRawUnderMutations drives two store-pinned queries
// through the same trajectory while their stores churn objects in lockstep;
// answers must agree exactly at every step. The pinned query re-pins at its
// Update, over whatever window of mutations went by; the reference re-pins
// right after each mutation and so judges each on its own: Invalidate when
// it can affect the guard sets, recompute at the next update.
func TestPinnedMatchesRawUnderMutations(t *testing.T) {
	pts := workload.Uniform(300, pinnedBounds, 11)
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: pts})
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: pts})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := newPlaneOnStore(st, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newPlaneOnStore(refSt, 4, 1.6)
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
			if err := refSt.Remove(id); err != nil {
				t.Fatal(err)
			}
			ref.Sync()
			return
		}
		p := geom.Pt(float64((step*97)%1000), float64((step*61)%1000))
		id, err := st.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := refSt.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if rid != id {
			t.Fatalf("step %d: store id %d, reference id %d", step, id, rid)
		}
		ref.Sync()
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
			t.Fatalf("step %d reference: %v", step, err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: pinned %v, reference %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: pinned %v, reference %v", step, got, want)
			}
		}
	}
	if pinned.Epoch() != st.Epoch() {
		t.Errorf("query epoch %d, store epoch %d", pinned.Epoch(), st.Epoch())
	}
}

// TestPinnedReadOnly: a query never changes the index it reads — neither
// query type has a method that inserts or removes objects; data updates go
// through an index.Store — nor pins it: neither has a method to let go of
// a snapshot.
func TestPinnedReadOnly(t *testing.T) {
	for _, q := range []any{&PlaneQuery{}, &NetworkQuery{}} {
		typ := reflect.TypeOf(q)
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Insert") || strings.HasPrefix(name, "Remove") || name == "Close" {
				t.Errorf("%v has the method %s", typ, name)
			}
		}
	}
}

// TestSharedScratchDoesNotPinSupersededSnapshot: a shard's scratch outlives
// every snapshot its sessions search. After a search, a Store.Apply and the
// session's re-pin, nothing the idle scratch or the session holds may keep
// the superseded index version reachable.
func TestSharedScratchDoesNotPinSupersededSnapshot(t *testing.T) {
	st, err := index.NewStore(index.Config{Bounds: pinnedBounds, Objects: workload.Uniform(2000, pinnedBounds, 13)})
	if err != nil {
		t.Fatal(err)
	}
	var sc vortree.SearchScratch
	q, err := newPlaneOnStore(st, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	q.UseScratch(&sc)
	if _, err := q.Update(geom.Pt(100, 100)); err != nil { // first placement: a cold start
		t.Fatal(err)
	}
	collected := make(chan struct{}, 1)
	runtime.SetFinalizer(q.ix, func(*vortree.Index) { collected <- struct{}{} })
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
			t.Fatal("superseded snapshot's index still reachable after re-pin and GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
