package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// refQuery is a single-threaded reference session: a core.PlaneQuery over
// its own index store, mutated in lockstep with the engine's store and
// advanced over each mutation as it is applied (follow). It invalidates
// when a mutation can affect the guard sets and recomputes at its next
// update.
type refQuery struct {
	st *index.Store
	q  *core.PlaneQuery
}

func newRefQuery(t *testing.T, objects []geom.Point, k int, rho float64) *refQuery {
	t.Helper()
	st, err := index.NewStore(index.Config{Bounds: testBounds, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewPlaneQuery(st.Current().Plane(), k, rho)
	if err != nil {
		t.Fatal(err)
	}
	return &refQuery{st: st, q: q}
}

func (r *refQuery) insert(t *testing.T, p geom.Point, wantID int) {
	t.Helper()
	id, err := r.st.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("reference id %d, engine id %d", id, wantID)
	}
	follow(r.st, r.q)
}

func (r *refQuery) remove(t *testing.T, id int) {
	t.Helper()
	if err := r.st.Remove(id); err != nil {
		t.Fatal(err)
	}
	follow(r.st, r.q)
}

// follow advances a reference query to its store's current snapshot over
// the ops in between, as a shard advances its sessions.
func follow(st *index.Store, q interface {
	Epoch() uint64
	Advance(next *index.Snapshot, ops []index.Op, covered bool)
}) {
	next := st.Current()
	ops, covered := st.OpsSince(q.Epoch(), next.Epoch())
	q.Advance(next, ops, covered)
}

// TestEngineEquivalenceUnderMutations is the snapshot-architecture
// acceptance test: sessions spread across every shard of the engine must
// return exactly the answers of single-threaded INS processors across a
// mutation-heavy workload (a data update between every location-update
// step).
func TestEngineEquivalenceUnderMutations(t *testing.T) {
	const (
		nSessions = 12
		shards    = 4
		steps     = 50
		k         = 4
	)
	objects := workload.Uniform(400, testBounds, 42)
	e, err := New(Config{Shards: shards, Bounds: testBounds, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sids := make([]SessionID, nSessions)
	refs := make([]*refQuery, nSessions)
	trajs := make([][]geom.Point, nSessions)
	for i := range sids {
		sid, err := e.CreateSession(k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
		refs[i] = newRefQuery(t, objects, k, 1.6)
		trajs[i] = trajectory.RandomWaypoint(testBounds, steps, 12, int64(i))
	}

	var inserted []int
	for s := 0; s < steps; s++ {
		// One data update per step: alternate inserts and removals.
		if s%3 == 2 && len(inserted) > 3 {
			id := inserted[0]
			inserted = inserted[1:]
			if err := removeObject(e, id); err != nil {
				t.Fatalf("step %d remove %d: %v", s, id, err)
			}
			for _, r := range refs {
				r.remove(t, id)
			}
		} else {
			p := geom.Pt(float64((s*131)%1000), float64((s*373)%1000))
			id, err := insertObject(e, p)
			if err != nil {
				t.Fatalf("step %d insert: %v", s, err)
			}
			inserted = append(inserted, id)
			for _, r := range refs {
				r.insert(t, p, id)
			}
		}

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
			want, err := refs[i].q.Update(trajs[i][s])
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(r.KNN, want) {
				t.Fatalf("step %d session %d: engine %v, reference %v", s, i, r.KNN, want)
			}
		}
	}

	// After a full round of updates every shard has moved on: exactly
	// one snapshot version remains live.
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 1 {
		t.Errorf("live snapshots = %d, want 1 (old versions must be collected)", st.Snapshots)
	}
	if st.Epoch != uint64(steps) {
		t.Errorf("epoch = %d, want %d", st.Epoch, steps)
	}
}

// TestEngineCrossShardCoherence pins identical sessions (same k, rho,
// trajectory) to different shards and interleaves object churn with the
// batched location updates: because every mutation happens-before the next
// batch and every shard moves to the newest snapshot before it runs one,
// answers must be identical across shards at every step. Concurrent stats
// polling and a second batch stream exercise the lock-free read path under
// -race.
func TestEngineCrossShardCoherence(t *testing.T) {
	const (
		shards = 8
		steps  = 40
		k      = 5
	)
	e, err := New(Config{Shards: shards, Bounds: testBounds, Objects: workload.Uniform(1000, testBounds, 9)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// One session per shard (ids are assigned round-robin, so `shards`
	// consecutive sessions land on `shards` distinct shards), all driven
	// through the same trajectory.
	sids := make([]SessionID, shards)
	for i := range sids {
		sid, err := e.CreateSession(k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
	}
	// Extra background sessions keep the other mailboxes busy.
	extra := make([]SessionID, shards)
	for i := range extra {
		sid, err := e.CreateSession(k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		extra[i] = sid
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // concurrent stats polling
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := e.Stats(); err != nil {
					t.Errorf("stats: %v", err)
					return
				}
			}
		}
	}()
	go func() { // concurrent background batches on the extra sessions
		defer wg.Done()
		traj := trajectory.RandomWaypoint(testBounds, steps*4, 7, 77)
		for s := 0; ; s++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]LocationUpdate, len(extra))
			for i, sid := range extra {
				batch[i] = LocationUpdate{Session: sid, Pos: traj[s%len(traj)]}
			}
			if _, err := updateBatch(e, batch); err != nil {
				t.Errorf("background batch: %v", err)
				return
			}
		}
	}()

	traj := trajectory.RandomWaypoint(testBounds, steps, 15, 5)
	var inserted []int
	for s := 0; s < steps; s++ {
		// Interleave data updates with the batches. The mutation completes
		// (snapshot published) before the batch is issued, so every
		// session syncs to an epoch >= it.
		if s%2 == 0 {
			p := geom.Pt(float64((s*211)%1000), float64((s*97)%1000))
			id, err := insertObject(e, p)
			if err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, id)
		} else if len(inserted) > 2 {
			id := inserted[0]
			inserted = inserted[1:]
			if err := removeObject(e, id); err != nil {
				t.Fatal(err)
			}
		}

		batch := make([]LocationUpdate, len(sids))
		for i, sid := range sids {
			batch[i] = LocationUpdate{Session: sid, Pos: traj[s]}
		}
		results, err := updateBatch(e, batch)
		if err != nil {
			t.Fatal(err)
		}
		first := results[0]
		if first.Err != nil {
			t.Fatalf("step %d: %v", s, first.Err)
		}
		for i, r := range results[1:] {
			if r.Err != nil {
				t.Fatalf("step %d session %d: %v", s, i+1, r.Err)
			}
			if !equalInts(r.KNN, first.KNN) {
				t.Fatalf("step %d: shard answers diverge: %v vs %v", s, first.KNN, r.KNN)
			}
		}
	}
	close(stop)
	wg.Wait()
}
