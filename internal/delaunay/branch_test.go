package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// neighborSnapshot captures every live vertex's neighbor list.
func neighborSnapshot(t *testing.T, tr *Triangulation) map[int][]int {
	t.Helper()
	snap := make(map[int][]int)
	for _, id := range tr.VertexIDs() {
		nb, err := tr.Neighbors(id)
		if err != nil {
			t.Fatal(err)
		}
		snap[id] = nb
	}
	return snap
}

func sameNeighbors(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, nb := range a {
		ob, ok := b[id]
		if !ok || len(ob) != len(nb) {
			return false
		}
		for i := range nb {
			if nb[i] != ob[i] {
				return false
			}
		}
	}
	return true
}

// TestBranchIsolation drives a chain of branches with inserts and removals
// and asserts every frozen version keeps answering exactly as it did when
// it was the head — the page-sharing invariant the snapshot store relies
// on.
func TestBranchIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	head := New(testBounds)
	if _, err := head.InsertAll(randomPoints(300, 3)); err != nil {
		t.Fatal(err)
	}

	type pinned struct {
		tr   *Triangulation
		snap map[int][]int
	}
	var pins []pinned
	live := head.VertexIDs()
	for epoch := 0; epoch < 40; epoch++ {
		pins = append(pins, pinned{head, neighborSnapshot(t, head)})
		next := head.Branch()
		if _, err := head.Insert(geom.Pt(1, 1)); !errors.Is(err, ErrFrozen) {
			t.Fatalf("insert on frozen version: err = %v, want ErrFrozen", err)
		}
		if err := head.Remove(live[0]); !errors.Is(err, ErrFrozen) {
			t.Fatalf("remove on frozen version: err = %v, want ErrFrozen", err)
		}
		head = next
		if epoch%3 == 2 {
			victim := live[rng.Intn(len(live))]
			if err := head.Remove(victim); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := head.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatal(err)
			}
		}
		live = head.VertexIDs()
		checkDelaunay(t, head)
		checkAdjacency(t, head)
	}
	for i, p := range pins {
		if got := neighborSnapshot(t, p.tr); !sameNeighbors(p.snap, got) {
			t.Fatalf("pinned version %d changed after later mutations", i)
		}
	}
}

// TestBranchConcurrentReaders mutates the head version while goroutines
// hammer reads on frozen ancestors; run under -race this proves the
// page-sharing scheme never writes memory a frozen version can see.
func TestBranchConcurrentReaders(t *testing.T) {
	head := New(testBounds)
	if _, err := head.InsertAll(randomPoints(400, 17)); err != nil {
		t.Fatal(err)
	}
	frozen := head
	head = head.Branch()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := frozen.VertexIDs()
			var sc RingScratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				if _, err := frozen.AppendNeighbors(id, nil, &sc); err != nil {
					t.Errorf("frozen Neighbors(%d): %v", id, err)
					return
				}
				frozen.NearestFrom(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), -1, 0, &sc)
			}
		}(int64(g))
	}

	rng := rand.New(rand.NewSource(99))
	live := head.VertexIDs()
	for i := 0; i < 200; i++ {
		if i%4 == 3 {
			if err := head.Remove(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		} else if _, err := head.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatal(err)
		}
		live = head.VertexIDs()
		if i%20 == 19 {
			next := head.Branch() // old heads stay readable; only the newest mutates
			head = next
		}
	}
	close(stop)
	wg.Wait()
	checkDelaunay(t, head)
	checkAdjacency(t, head)
}

// TestAbortedBranchIsDiscarded: a branch that removes and inserts and is
// then dropped leaves its parent as it was — answers and free face slots
// alike — so the next branch of the parent mutates a sound triangulation.
// The parent's free list is non-empty (removals recycle faces), which is
// where a branch sharing it would pop slots and push others over them.
func TestAbortedBranchIsDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	head := New(testBounds)
	if _, err := head.InsertAll(randomPoints(300, 5)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 6; i++ {
			live := head.VertexIDs()
			if err := head.Remove(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		}
		published := head
		snap := neighborSnapshot(t, published)
		// Inserts first: they pop the parent's free slots, and the removals
		// after them push other face ids where those entries were.
		abandoned := published.Branch()
		for i := 0; i < 8; i++ {
			if _, err := abandoned.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			live := abandoned.VertexIDs()
			if err := abandoned.Remove(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		}
		head = published.Branch()
		for i := 0; i < 8; i++ {
			if _, err := head.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatal(err)
			}
		}
		checkAdjacency(t, head)
		checkDelaunay(t, head)
		if got := neighborSnapshot(t, published); !sameNeighbors(snap, got) {
			t.Fatalf("round %d: the published version changed under its branches", round)
		}
	}
}

// TestContainsOutOfRangeID: ids outside the vertex table are not vertices,
// including the three largest ints, for which id+3 wraps onto a
// super-triangle corner; Neighbors and Remove refuse them.
func TestContainsOutOfRangeID(t *testing.T) {
	tr := New(testBounds)
	if _, err := tr.InsertAll(randomPoints(20, 7)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, tr.IDUpperBound(), math.MaxInt - 2, math.MaxInt - 1, math.MaxInt} {
		if tr.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
		if _, err := tr.Neighbors(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Neighbors(%d) = %v, want ErrNotFound", id, err)
		}
		if err := tr.Remove(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Remove(%d) = %v, want ErrNotFound", id, err)
		}
	}
	checkAdjacency(t, tr)
}
