package index

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/vortree"
	"repro/internal/workload"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

func newPlaneStore(t *testing.T, n int, logDepth int) *Store {
	t.Helper()
	st, err := NewStore(Config{
		Bounds:   testBounds,
		Objects:  workload.Uniform(n, testBounds, 42),
		LogDepth: logDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestStoreIDsMatchSingleThreadedBuild(t *testing.T) {
	pts := workload.Uniform(200, testBounds, 7)
	st, err := NewStore(Config{Bounds: testBounds, Objects: pts})
	if err != nil {
		t.Fatal(err)
	}
	ref, refIDs, err := vortree.Build(testBounds, 16, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutations assign the same ids as direct index mutations.
	p := geom.Pt(123.4, 567.8)
	id, err := st.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	refID, err := ref.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != refID {
		t.Fatalf("store id %d, reference id %d", id, refID)
	}
	if err := st.Remove(refIDs[0]); err != nil {
		t.Fatal(err)
	}
	plane := st.Current().Plane()
	if plane.Contains(refIDs[0]) {
		t.Error("removed object still live")
	}
	if got, want := plane.Len(), len(pts); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	if st.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", st.Epoch())
	}
}

func TestStoreSnapshotImmutability(t *testing.T) {
	st := newPlaneStore(t, 100, 0)
	old := st.Current()
	oldLen := old.Plane().Len()
	q := geom.Pt(500, 500)
	before := old.Plane().KNN(q, 5)

	for i := 0; i < 50; i++ {
		if _, err := st.Insert(geom.Pt(499+float64(i)/100, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.Plane().Len(); got != oldLen {
		t.Fatalf("old snapshot Len changed: %d -> %d", oldLen, got)
	}
	after := old.Plane().KNN(q, 5)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("old snapshot kNN changed: %v -> %v", before, after)
		}
	}
	cur := st.Current()
	if got := cur.Plane().Len(); got != oldLen+50 {
		t.Fatalf("current snapshot Len = %d, want %d", got, oldLen+50)
	}
	if cur.Epoch() != old.Epoch()+50 {
		t.Fatalf("epochs: old %d, cur %d", old.Epoch(), cur.Epoch())
	}
}

func TestStoreApplyBatchPublishesOnce(t *testing.T) {
	st := newPlaneStore(t, 10, 0)
	epochs := st.Subscribe()
	muts := []Mutation{
		{Insert: true, P: geom.Pt(10, 10)},
		{Insert: true, P: geom.Pt(20, 20)},
		{Insert: true, P: geom.Pt(30, 30)},
	}
	ids, err := st.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if st.Epoch() != 3 {
		t.Errorf("epoch = %d, want 3 (one per mutation)", st.Epoch())
	}
	// One coalesced notification carrying the final epoch.
	if got := <-epochs; got != 3 {
		t.Errorf("notified epoch = %d, want 3", got)
	}
	select {
	case e := <-epochs:
		t.Errorf("unexpected second notification %d", e)
	default:
	}
	// A failed batch publishes nothing and consumes no epochs.
	if _, err := st.Apply([]Mutation{{Insert: true, P: geom.Pt(40, 40)}, {ID: 99999}}); err == nil {
		t.Fatal("batch with unknown removal succeeded")
	}
	if st.Epoch() != 3 {
		t.Errorf("epoch after failed batch = %d, want 3", st.Epoch())
	}
	if st.Current().Plane().Len() != 13 {
		t.Errorf("object count after failed batch = %d, want 13", st.Current().Plane().Len())
	}
}

func TestStoreOpsSince(t *testing.T) {
	st := newPlaneStore(t, 10, 4)
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := st.Insert(geom.Pt(float64(i)*7+1, 3))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ops, ok := st.OpsSince(0, 3)
	if !ok || len(ops) != 3 {
		t.Fatalf("OpsSince(0,3) = %v ops, ok=%v", len(ops), ok)
	}
	for i, op := range ops {
		if op.Epoch != uint64(i+1) || !op.Insert || op.ID != ids[i] {
			t.Errorf("op %d = %+v", i, op)
		}
		if op.Conservative || op.Neighbors == nil {
			t.Errorf("op %d missing neighbor capture: %+v", i, op)
		}
	}
	if ops, ok := st.OpsSince(1, 2); !ok || len(ops) != 1 || ops[0].Epoch != 2 {
		t.Errorf("OpsSince(1,2) = %+v, ok=%v", ops, ok)
	}
	if ops, ok := st.OpsSince(3, 3); !ok || len(ops) != 0 {
		t.Errorf("OpsSince(3,3) = %+v, ok=%v", ops, ok)
	}
	// Overflow the 4-deep log: epoch 1 must fall out.
	if err := st.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.OpsSince(0, 5); ok {
		t.Error("OpsSince(0,5) succeeded after log trim")
	}
	if ops, ok := st.OpsSince(1, 5); !ok || len(ops) != 4 {
		t.Errorf("OpsSince(1,5) = %d ops, ok=%v", len(ops), ok)
	}
	if ops, ok := st.OpsSince(4, 5); !ok || len(ops) != 1 || ops[0].Insert {
		t.Errorf("OpsSince(4,5) = %+v, ok=%v", ops, ok)
	}
}

func TestStoreRemoveErrors(t *testing.T) {
	st := newPlaneStore(t, 5, 0)
	if err := st.Remove(99999); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("remove unknown: %v", err)
	}
	g, err := roadnet.GridNetwork(4, 4, testBounds, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	netOnly, err := NewStore(Config{Network: g, NetworkSites: []int{0, 5, 10, 15}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netOnly.Insert(geom.Pt(1, 1)); !errors.Is(err, ErrNoPlane) {
		t.Errorf("insert on network-only store: %v", err)
	}
	if netOnly.Network() == nil || netOnly.Current().Network() == nil {
		t.Error("network backend missing")
	}
	if netOnly.Current().Plane() != nil {
		t.Error("plane backend present on network-only store")
	}
	st.Close()
	if _, err := st.Insert(geom.Pt(2, 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close: %v", err)
	}
	if !st.Closed() {
		t.Error("Closed() = false after Close")
	}
	if got := st.Current().Plane().Len(); got != 5 {
		t.Errorf("final snapshot after close holds %d objects, want 5", got)
	}
}

// TestRemoveOutOfRangeID: a plane removal of an id no object ever had —
// negative, the next id, or one of the three largest ints, where id+3
// wraps onto a super-triangle corner — is refused as unknown and publishes
// nothing.
func TestRemoveOutOfRangeID(t *testing.T) {
	st := newPlaneStore(t, 50, 0)
	defer st.Close()
	next := st.Current().Plane().NextID()
	for _, id := range []int{-1, next, math.MaxInt - 2, math.MaxInt - 1, math.MaxInt} {
		if err := st.Remove(id); !errors.Is(err, ErrUnknownObject) {
			t.Errorf("Remove(%d) = %v, want ErrUnknownObject", id, err)
		}
		if st.Epoch() != 0 {
			t.Fatalf("Remove(%d) published epoch %d", id, st.Epoch())
		}
	}
	if got := st.Current().Plane().Len(); got != 50 {
		t.Fatalf("%d live objects after refused removals, want 50", got)
	}
}

// TestStoreConcurrentReadersWriters exercises the copy-on-write contract
// under -race: readers run kNN/INS on the snapshots they hold while a
// writer churns objects.
func TestStoreConcurrentReadersWriters(t *testing.T) {
	st := newPlaneStore(t, 500, 0)
	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := geom.Pt(float64(r)*100+50, 500)
			for {
				select {
				case <-stop:
					return
				default:
				}
				plane := st.Current().Plane()
				knn := plane.KNN(q, 8)
				if len(knn) != 8 {
					t.Errorf("reader %d: got %d neighbors", r, len(knn))
				}
				if _, err := plane.INS(knn); err != nil {
					t.Errorf("reader %d: INS: %v", r, err)
				}
			}
		}(r)
	}
	var inserted []int
	for i := 0; i < 60; i++ {
		if len(inserted) > 10 {
			if err := st.Remove(inserted[0]); err != nil {
				t.Error(err)
			}
			inserted = inserted[1:]
		} else {
			id, err := st.Insert(geom.Pt(float64(i%37)*23+11, float64(i%17)*41+13))
			if err != nil {
				t.Error(err)
			} else {
				inserted = append(inserted, id)
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := st.Epoch(); got != 60 {
		t.Errorf("epoch after 60 mutations = %d", got)
	}
}

// TestStoreRestoreGapsMatchesLiveStore: a store rebuilt from a snapshot's
// checkpoint form — bulk-restored, with the ids the churn burned left as
// gaps — publishes at the checkpoint's epoch, answers as the live store
// does, and hands out the same ids from there on.
func TestStoreRestoreGapsMatchesLiveStore(t *testing.T) {
	live := newPlaneStore(t, 2000, 0)
	rng := rand.New(rand.NewSource(11))
	for batch := 0; batch < 40; batch++ {
		var muts []Mutation
		for i := 0; i < 8; i++ {
			muts = append(muts,
				Mutation{ID: batch*8 + i},
				Mutation{Insert: true, P: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)})
		}
		if _, err := live.Apply(muts); err != nil {
			t.Fatal(err)
		}
	}
	objs, nextID := live.Current().PlaneObjects()
	if nextID == len(objs) {
		t.Fatal("churn burned no ids: nothing to restore around")
	}
	restored, err := NewStore(Config{Bounds: testBounds, Restore: &Restore{
		Epoch: live.Epoch(), HasPlane: true, Plane: objs, NextID: nextID,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != live.Epoch() {
		t.Fatalf("restored at epoch %d, want %d", restored.Epoch(), live.Epoch())
	}
	for step := 0; step < 50; step++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got, want := restored.Current().Plane().KNN(q, 8), live.Current().Plane().KNN(q, 8)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: restored kNN(%v) = %v, live store %v", step, q, got, want)
		}
		a, errA := restored.Insert(q)
		b, errB := live.Insert(q)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("step %d: restored store assigned id %d (%v), live store %d (%v)", step, a, errA, b, errB)
		}
		if err := restored.Remove(objs[step].ID); err != nil {
			t.Fatal(err)
		}
		if err := live.Remove(objs[step].ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpsSinceViewsOutliveTrims: with an 8-deep log (which trims every two
// or three ops), a reader keeps every OpsSince view it takes until the
// writer has applied 12 more epochs — four trims at least — and checks at
// every turn that each held view still reads the epochs it was returned for.
// -race proves that neither appends nor trims write a view's memory. A batch
// longer than the log leaves exactly its last eight ops covered.
func TestOpsSinceViewsOutliveTrims(t *testing.T) {
	const depth, epochs = 8, 600
	st := newPlaneStore(t, 50, depth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < epochs/2; i++ {
			id, err := st.Insert(geom.Pt(float64(i%97)*9+3, float64(i%89)*11+5))
			if err != nil {
				t.Error(err)
				return
			}
			if err := st.Remove(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type view struct {
		from uint64
		ops  []Op
	}
	var held []view
	oldest := uint64(math.MaxUint64) // the earliest epoch a view has outlived
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		to := st.Epoch()
		if to >= 3 {
			if ops, ok := st.OpsSince(to-3, to); ok {
				held = append(held, view{to - 3, ops})
			}
		}
		kept := held[:0]
		for _, v := range held {
			for i, op := range v.ops {
				if op.Epoch != v.from+1+uint64(i) {
					t.Fatalf("view of (%d, %d] reads epoch %d at %d", v.from, v.from+3, op.Epoch, i)
				}
			}
			if to-v.from < 15 {
				kept = append(kept, v)
			} else {
				oldest = min(oldest, v.from)
			}
		}
		held = kept
	}
	if oldest == math.MaxUint64 {
		t.Fatal("no view outlived 12 epochs")
	}

	muts := make([]Mutation, 20)
	for i := range muts {
		muts[i] = Mutation{Insert: true, P: geom.Pt(float64(i)*13+7, 500)}
	}
	if _, err := st.Apply(muts); err != nil {
		t.Fatal(err)
	}
	end := st.Epoch()
	if _, ok := st.OpsSince(end-depth-1, end); ok {
		t.Errorf("OpsSince covers %d ops after a 20-op batch, depth %d", depth+1, depth)
	}
	ops, ok := st.OpsSince(end-depth, end)
	if !ok || len(ops) != depth || ops[0].Epoch != end-depth+1 || cap(ops) != depth {
		t.Fatalf("OpsSince(%d, %d) = %d ops (cap %d), ok=%v", end-depth, end, len(ops), cap(ops), ok)
	}
}
