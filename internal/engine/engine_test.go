package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

func newTestEngine(t *testing.T, nObjects, shards int) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:  shards,
		Bounds:  testBounds,
		Objects: workload.Uniform(nObjects, testBounds, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// Test shorthands over the engine's ctx-first API: a background context,
// one mutation per write batch.
func updateBatch(e *Engine, u []LocationUpdate) ([]UpdateResult, error) {
	return e.UpdateBatchCtx(context.Background(), u)
}

func updateNetworkBatch(e *Engine, u []NetworkLocationUpdate) ([]UpdateResult, error) {
	return e.UpdateNetworkBatchCtx(context.Background(), u)
}

func mutate(e *Engine, m index.Mutation) (int, error) {
	ids, err := e.ApplyMutations(context.Background(), []index.Mutation{m})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}

func insertObject(e *Engine, p geom.Point) (int, error) {
	return mutate(e, index.Mutation{Insert: true, P: p})
}

func removeObject(e *Engine, id int) error {
	_, err := mutate(e, index.Mutation{ID: id})
	return err
}

func insertNetworkObject(e *Engine, v int) (int, error) {
	return mutate(e, index.Mutation{Network: true, Insert: true, ID: v})
}

func removeNetworkObject(e *Engine, v int) error {
	_, err := mutate(e, index.Mutation{Network: true, ID: v})
	return err
}

// TestEngineManyConcurrentSessions is the serving acceptance test: 1000
// live sessions across 8 shards, driven by concurrent batched updates
// while a churn goroutine interleaves object inserts and deletes. Run
// with -race.
func TestEngineManyConcurrentSessions(t *testing.T) {
	const (
		nSessions = 1000
		nDrivers  = 8
		steps     = 12
		k         = 5
	)
	e := newTestEngine(t, 2000, 8)

	// Create sessions concurrently to exercise the create path too.
	sids := make([]SessionID, nSessions)
	var wg sync.WaitGroup
	for d := 0; d < nDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < nSessions; i += nDrivers {
				sid, err := e.CreateSession(k, 1.6)
				if err != nil {
					t.Errorf("create %d: %v", i, err)
					return
				}
				sids[i] = sid
			}
		}(d)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Churn: interleaved data updates racing the location updates.
	churnDone := make(chan int)
	stop := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(7))
		n := 0
		var inserted []int
	loop:
		for n < 300 {
			select {
			case <-stop:
				break loop
			default:
			}
			if len(inserted) > 20 {
				id := inserted[0]
				inserted = inserted[1:]
				if err := removeObject(e, id); err != nil {
					t.Errorf("remove %d: %v", id, err)
				}
			} else {
				p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				id, err := insertObject(e, p)
				if err != nil {
					t.Errorf("insert %v: %v", p, err)
				} else {
					inserted = append(inserted, id)
				}
			}
			n++
		}
		churnDone <- n
	}()

	// Drivers: each owns a slice of sessions and pushes batched updates.
	for d := 0; d < nDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var mine []SessionID
			for i := d; i < nSessions; i += nDrivers {
				mine = append(mine, sids[i])
			}
			trajs := make([][]geom.Point, len(mine))
			for i := range mine {
				trajs[i] = trajectory.RandomWaypoint(testBounds, steps, 5, int64(1000*d+i))
			}
			for s := 0; s < steps; s++ {
				batch := make([]LocationUpdate, len(mine))
				for i, sid := range mine {
					batch[i] = LocationUpdate{Session: sid, Pos: trajs[i][s]}
				}
				results, err := updateBatch(e, batch)
				if err != nil {
					t.Errorf("driver %d step %d: %v", d, s, err)
					return
				}
				for i, r := range results {
					if r.Err != nil {
						t.Errorf("driver %d step %d session %d: %v", d, s, batch[i].Session, r.Err)
						return
					}
					if len(r.KNN) != k {
						t.Errorf("driver %d step %d: got %d results, want %d", d, s, len(r.KNN), k)
						return
					}
				}
			}
		}(d)
	}
	wg.Wait()
	close(stop)
	churned := <-churnDone
	if t.Failed() {
		t.FailNow()
	}
	if churned == 0 {
		t.Error("churn goroutine never ran")
	}

	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != nSessions {
		t.Errorf("sessions = %d, want %d", st.Sessions, nSessions)
	}
	if want := uint64(nSessions * steps); st.Updates != want {
		t.Errorf("updates = %d, want %d", st.Updates, want)
	}
	if st.Latency.Count != st.Updates {
		t.Errorf("latency count = %d, want %d", st.Latency.Count, st.Updates)
	}
	if st.Epoch != uint64(churned) {
		t.Errorf("epoch = %d, want %d churn updates", st.Epoch, churned)
	}
	if st.Counters.Recomputations == 0 || st.Counters.Validations == 0 {
		t.Errorf("implausible counters: %v", st.Counters)
	}
}

// TestEngineMatchesReference drives sessions through the sharded engine
// and the same trajectories through standalone single-threaded INS
// queries; results must agree exactly (replicas are deterministic).
func TestEngineMatchesReference(t *testing.T) {
	const (
		nSessions = 20
		steps     = 40
		k         = 4
	)
	objects := workload.Uniform(300, testBounds, 42)
	e := newTestEngine(t, 300, 4)

	sids := make([]SessionID, nSessions)
	refs := make([]*core.PlaneQuery, nSessions)
	trajs := make([][]geom.Point, nSessions)
	for i := range sids {
		sid, err := e.CreateSession(k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
		ix, _, err := vortree.Build(testBounds, 16, objects)
		if err != nil {
			t.Fatal(err)
		}
		refs[i], err = core.NewPlaneQuery(ix, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		trajs[i] = trajectory.RandomWaypoint(testBounds, steps, 8, int64(i))
	}

	for s := 0; s < steps; s++ {
		batch := make([]LocationUpdate, nSessions)
		for i := range sids {
			batch[i] = LocationUpdate{Session: sids[i], Pos: trajs[i][s]}
		}
		results, err := updateBatch(e, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("step %d session %d: %v", s, i, r.Err)
			}
			want, err := refs[i].Update(trajs[i][s])
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(r.KNN, want) {
				t.Fatalf("step %d session %d: engine %v, reference %v", s, i, r.KNN, want)
			}
		}
	}
}

// TestEngineDataUpdateInvalidation checks the lazy invalidation semantics:
// an insert near a session shows up in its next result, a removal of a
// current kNN member disappears from it.
func TestEngineDataUpdateInvalidation(t *testing.T) {
	// A sparse corner-heavy layout so the query position's nearest object
	// is unambiguous.
	objects := []geom.Point{
		geom.Pt(100, 100), geom.Pt(900, 100), geom.Pt(100, 900),
		geom.Pt(900, 900), geom.Pt(500, 900),
	}
	e, err := New(Config{Shards: 2, Bounds: testBounds, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sid, err := e.CreateSession(1, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.Pt(480, 480)
	knn := mustUpdate(t, e, sid, pos)

	// Insert an object right at the query position: it must become the NN
	// at the next update.
	newID, err := insertObject(e, geom.Pt(479, 481))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustUpdate(t, e, sid, pos); len(got) != 1 || got[0] != newID {
		t.Fatalf("after insert: knn = %v, want [%d]", got, newID)
	}

	// Remove it again: the previous NN must come back.
	if err := removeObject(e, newID); err != nil {
		t.Fatal(err)
	}
	if got := mustUpdate(t, e, sid, pos); !equalInts(got, knn) {
		t.Fatalf("after remove: knn = %v, want %v", got, knn)
	}

	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", st.Epoch)
	}
	if st.Objects != len(objects) {
		t.Errorf("objects = %d, want %d", st.Objects, len(objects))
	}
}

func mustUpdate(t *testing.T, e *Engine, sid SessionID, pos geom.Point) []int {
	t.Helper()
	results, err := updateBatch(e, []LocationUpdate{{Session: sid, Pos: pos}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	return results[0].KNN
}

func TestEngineNetworkSessions(t *testing.T) {
	g, err := roadnet.GridNetwork(10, 10, testBounds, 0.1, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites := []int{0, 9, 37, 55, 73, 90, 99}
	e, err := New(Config{Shards: 4, Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Reference query on its own replica.
	d, err := buildReferenceNetVor(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewNetworkQuery(d, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}

	sid, err := e.CreateNetworkSession(2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 0, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for dist := 0.0; dist <= route.Length(); dist += 25 {
		pos := route.PositionAt(dist)
		results, err := updateNetworkBatch(e, []NetworkLocationUpdate{{Session: sid, Pos: pos}})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		want, err := ref.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(results[0].KNN, want) {
			t.Fatalf("at %v: engine %v, reference %v", pos, results[0].KNN, want)
		}
	}
	// The validation split is readable from Stats: at a fifth of an edge per
	// update the session is served from edge anchors, as often as the
	// reference.
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Counters, *ref.Metrics(); got.AnchoredValidations == 0 ||
		got.AnchoredValidations != want.AnchoredValidations || got.AnchorBuilds != want.AnchorBuilds || got.AnchorTableHits != want.AnchorTableHits {
		t.Errorf("Stats counters %v, reference %v", got, want)
	}

	// A plane update against a network session is a per-entry error.
	results, err := updateBatch(e, []LocationUpdate{{Session: sid, Pos: geom.Pt(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("plane update on network session succeeded")
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}

	e := newTestEngine(t, 50, 4)
	if _, err := e.CreateSession(0, 1.6); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.CreateSession(3, 0.5); err == nil {
		t.Error("rho<1 accepted")
	}
	if _, err := e.CreateNetworkSession(2, 1.6); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("network session without network: %v", err)
	}

	// Unknown sessions: engine-level close errors, per-entry batch errors.
	if err := e.CloseSession(12345); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("close unknown: %v", err)
	}
	if err := e.CloseSession(0); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("close zero: %v", err)
	}
	results, err := updateBatch(e, []LocationUpdate{{Session: 12345, Pos: geom.Pt(1, 1)}, {Session: 0, Pos: geom.Pt(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrUnknownSession) {
			t.Errorf("result %d: %v", i, r.Err)
		}
	}

	sid, err := e.CreateSession(3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseSession(sid); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("double close: %v", err)
	}

	if err := removeObject(e, 99999); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("remove of unknown object: %v", err)
	}
	if _, err := insertObject(e, geom.Pt(-1, -1)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out-of-bounds insert: %v", err)
	}
}

func TestEngineClose(t *testing.T) {
	e := newTestEngine(t, 50, 2)
	sid, err := e.CreateSession(2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := e.CreateSession(2, 1.6); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: %v", err)
	}
	if _, err := updateBatch(e, []LocationUpdate{{Session: sid}}); !errors.Is(err, ErrClosed) {
		t.Errorf("update after close: %v", err)
	}
	if err := e.CloseSession(sid); !errors.Is(err, ErrClosed) {
		t.Errorf("close session after close: %v", err)
	}
	if _, err := e.Stats(); !errors.Is(err, ErrClosed) {
		t.Errorf("stats after close: %v", err)
	}
	if _, err := insertObject(e, geom.Pt(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close: %v", err)
	}
	// ErrClosed wins over input validation on a closed engine.
	if _, err := insertObject(e, geom.Pt(-1, -1)); !errors.Is(err, ErrClosed) {
		t.Errorf("out-of-bounds insert after close: %v", err)
	}
}

func buildReferenceNetVor(g *roadnet.Graph, sites []int) (*netvor.Diagram, error) {
	// The graph is shared with the engine's diagram: reads (and their
	// relaxation accounting) are safe across goroutines.
	return netvor.Build(g, sites)
}

func equalInts(a, b []int) bool {
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

// TestApplyMutations covers the engine's write entry with batches of more
// than one mutation: one call publishes the whole batch, ids parallel the
// mutations, and bad input is refused whole.
func TestApplyMutations(t *testing.T) {
	e := newTestEngine(t, 50, 2)
	st0, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.ApplyMutations(context.Background(), []index.Mutation{
		{Insert: true, P: geom.Pt(10, 20)},
		{Insert: true, P: geom.Pt(30, 40)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] < 0 || ids[1] < 0 || ids[0] == ids[1] {
		t.Fatalf("bad insert ids %v", ids)
	}
	// Remove one of them in a mixed batch with another insert.
	ids2, err := e.ApplyMutations(context.Background(), []index.Mutation{
		{ID: ids[0]},
		{Insert: true, P: geom.Pt(50, 60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids2[0] != ids[0] {
		t.Fatalf("remove must echo the id: got %d want %d", ids2[0], ids[0])
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != st0.Objects+2 {
		t.Fatalf("objects = %d, want %d", st.Objects, st0.Objects+2)
	}
	// One epoch per mutation, published batch-wise.
	if st.Epoch != st0.Epoch+4 {
		t.Fatalf("epoch = %d, want %d", st.Epoch, st0.Epoch+4)
	}

	// Validation: out-of-bounds inserts are rejected whole-batch before
	// the store sees them; empty batches are free.
	if _, err := e.ApplyMutations(context.Background(), []index.Mutation{
		{Insert: true, P: geom.Pt(-5000, 0)},
	}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
	if _, err := e.ApplyMutations(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := e.ApplyMutations(context.Background(), []index.Mutation{{ID: 1 << 30}}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("want ErrUnknownObject, got %v", err)
	}
}
