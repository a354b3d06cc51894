package rtree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// buildReference builds a fresh tree from scratch over the live items in
// insertion-id order — the oracle the incrementally mutated, path-copying
// tree is compared against.
func buildReference(items map[int]geom.Point, fanout int) *Tree {
	ref := New(fanout)
	ids := make([]int, 0, len(items))
	for id := range items {
		ids = append(ids, id)
	}
	// Deterministic build order (map iteration is random).
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		ref.Insert(Item{ID: id, P: items[id]})
	}
	return ref
}

func knnIDs(t *Tree, q geom.Point, k int) []int {
	items := t.KNN(q, k)
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

func sameIDs(a, b []int) bool {
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

// TestDifferentialPathCopy drives a random mutation sequence through the
// persistent tree and checks, at every step, that (1) its kNN answers are
// identical to a tree rebuilt from scratch over the same live set, (2) the
// structural invariants (incl. the node-count bookkeeping) hold, and (3)
// every snapshot pinned along the way still answers exactly as it did when
// it was pinned — while concurrent readers hammer the pinned snapshots to
// let -race prove the sharing is write-free.
func TestDifferentialPathCopy(t *testing.T) {
	// The chain starts from an empty tree and from a packed one: path
	// copies, splits and condensation must work the same on bulk-loaded
	// nodes, whose entry slices are windows onto shared arrays.
	t.Run("empty", func(t *testing.T) { differentialPathCopy(t, 0) })
	t.Run("bulk", func(t *testing.T) { differentialPathCopy(t, 300) })
}

func differentialPathCopy(t *testing.T, preload int) {
	const (
		steps  = 400
		probeN = 5
		k      = 8
		fanout = 8
	)
	rng := rand.New(rand.NewSource(31))
	probes := make([]geom.Point, probeN)
	for i := range probes {
		probes[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}

	live := make(map[int]geom.Point)
	for _, it := range randomItems(preload, 32) {
		live[it.ID] = it.P
	}
	tr := BulkLoad(fanout, randomItems(preload, 32))
	nextID := preload

	type pin struct {
		tree    *Tree
		answers [][]int
	}
	var pins []pin
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()

	snapshot := func(tree *Tree) [][]int {
		out := make([][]int, probeN)
		for i, q := range probes {
			out[i] = knnIDs(tree, q, k)
		}
		return out
	}

	for step := 0; step < steps; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Delete a random live item.
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			victim := ids[rng.Intn(len(ids))]
			if !tr.Delete(victim, live[victim]) {
				t.Fatalf("step %d: delete of live id %d failed", step, victim)
			}
			delete(live, victim)
		} else {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			tr.Insert(Item{ID: nextID, P: p})
			live[nextID] = p
			nextID++
		}

		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(live))
		}
		ref := buildReference(live, fanout)
		for _, q := range probes {
			got, want := knnIDs(tr, q, k), knnIDs(ref, q, k)
			if !sameIDs(got, want) {
				t.Fatalf("step %d: kNN(%v) = %v, rebuilt-from-scratch says %v", step, q, got, want)
			}
		}

		// Pin a snapshot every 40 steps and keep a reader hammering it.
		if step%40 == 20 {
			pinned := tr.Clone()
			pins = append(pins, pin{tree: pinned, answers: snapshot(pinned)})
			wg.Add(1)
			go func(p *Tree, q geom.Point) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						p.KNN(q, k)
						p.Search(geom.NewRect(geom.Pt(100, 100), geom.Pt(900, 900)))
					}
				}
			}(pinned, probes[rng.Intn(probeN)])
		}
	}

	// Every pinned snapshot must be provably unchanged by the mutations
	// that came after it.
	for i, p := range pins {
		if err := p.tree.CheckInvariants(); err != nil {
			t.Fatalf("pinned snapshot %d: %v", i, err)
		}
		for j, q := range probes {
			if got := knnIDs(p.tree, q, k); !sameIDs(got, p.answers[j]) {
				t.Fatalf("pinned snapshot %d changed: kNN(%v) = %v, was %v", i, q, got, p.answers[j])
			}
		}
	}
}

// TestCloneIsConstantTime sanity-checks that Clone copies no nodes: the
// clone's copied-node counter starts at zero and the first mutation copies
// only a spine, not the tree.
func TestCloneIsConstantTime(t *testing.T) {
	tr := New(16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		tr.Insert(Item{ID: i, P: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)})
	}
	c := tr.Clone()
	if c.CopiedNodes() != 0 {
		t.Fatalf("fresh clone copied %d nodes, want 0", c.CopiedNodes())
	}
	c.Insert(Item{ID: 10000, P: geom.Pt(500, 500)})
	if copied, total := c.CopiedNodes(), c.NodeCount(); copied > total/10 {
		t.Fatalf("one insert after clone copied %d of %d nodes; want a spine", copied, total)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
