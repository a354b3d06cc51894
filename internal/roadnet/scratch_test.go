package roadnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestHeap4Ordering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h heap4
	var want []heapItem
	for i := 0; i < 500; i++ {
		// Few distinct keys, so the (key, v) tie-break is exercised hard.
		it := heapItem{key: float64(rng.Intn(8)), d: rng.Float64(), v: int32(rng.Intn(64))}
		h.push(it)
		want = append(want, it)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].key != want[j].key {
			return want[i].key < want[j].key
		}
		return want[i].v < want[j].v
	})
	for i, w := range want {
		got := h.pop()
		if got.key != w.key || got.v != w.v {
			t.Fatalf("pop %d = (%g, %d), want (%g, %d)", i, got.key, got.v, w.key, w.v)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

func TestSearchScratchEpochs(t *testing.T) {
	var sc SearchScratch
	sc.Begin(8)
	if !sc.TryImprove(3, 5) {
		t.Fatal("first improvement rejected")
	}
	if sc.TryImprove(3, 5) || sc.TryImprove(3, 7) {
		t.Fatal("non-improvement accepted")
	}
	if !sc.TryImprove(3, 2) {
		t.Fatal("strict improvement rejected")
	}
	if got := sc.DistAt(3); got != 2 {
		t.Fatalf("DistAt = %g, want 2", got)
	}
	if sc.Reached(4) {
		t.Fatal("untouched vertex reads reached")
	}
	// A new epoch logically clears everything without touching the arrays.
	sc.Begin(8)
	if sc.Reached(3) || !math.IsInf(sc.DistAt(3), 1) {
		t.Fatal("epoch bump did not clear the distance state")
	}
	// The mark set is independent of the distance state.
	sc.MarkBegin(8)
	sc.SetMark(2, 7)
	if got := sc.Mark(2); got != 7 {
		t.Fatalf("Mark = %d, want 7", got)
	}
	if got := sc.Mark(3); got != 0 {
		t.Fatalf("unset Mark = %d, want 0", got)
	}
	sc.MarkBegin(8)
	if got := sc.Mark(2); got != 0 {
		t.Fatalf("Mark after MarkBegin = %d, want 0", got)
	}
}

func TestCSRMatchesAdjacency(t *testing.T) {
	g, err := RandomPlanarNetwork(60, testBounds, 0.5, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkCSR := func(g *Graph) {
		t.Helper()
		c := g.CSR()
		if len(c.Off) != g.NumVertices()+1 {
			t.Fatalf("CSR offsets: %d, want %d", len(c.Off), g.NumVertices()+1)
		}
		edges := 0
		for v := 0; v < g.NumVertices(); v++ {
			for e := c.Off[v]; e < c.Off[v+1]; e++ {
				edges++
				u := int(c.To[e])
				w, ok := g.EdgeWeight(v, u)
				if !ok {
					t.Fatalf("CSR edge %d-%d not in the graph", v, u)
				}
				if w != c.W[e] {
					t.Fatalf("CSR weight %d-%d = %g, graph says %g", v, u, c.W[e], w)
				}
			}
		}
		if edges != 2*g.NumEdges() {
			t.Fatalf("CSR half-edges = %d, want %d", edges, 2*g.NumEdges())
		}
	}
	checkCSR(g)

	// Mutation invalidates the cached view; the rebuilt one includes the
	// new edge, and an explicit zero weight survives (AddEdgeWeight must
	// not substitute the Euclidean length the way AddEdge does).
	a := g.AddVertex(geom.Pt(1, 1))
	b := g.AddVertex(geom.Pt(2, 2))
	if err := g.AddEdgeWeight(a, b, 0); err != nil {
		t.Fatal(err)
	}
	checkCSR(g)
	if w, ok := g.EdgeWeight(a, b); !ok || w != 0 {
		t.Fatalf("zero-weight edge reads (%g, %v)", w, ok)
	}
}

// TestSparseMarks: the mark set holds what a dense array would, whatever the
// order and however many marks are set — it grows past its load factor and
// keeps the marks set before — forgets all of it at MarkBegin without being
// wiped, and survives the wrap of its epoch counter.
func TestSparseMarks(t *testing.T) {
	var sc SearchScratch
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 6; round++ {
		if round == 4 {
			sc.markEpoch = math.MaxUint32 - 1 // rounds 4 and 5 straddle the wrap
		}
		sc.MarkBegin(1 << 20)
		if round == 5 && sc.markEpoch != 1 {
			t.Fatalf("epoch after the wrap = %d, want 1", sc.markEpoch)
		}
		want := map[int32]int32{}
		n := []int{5, 20000, 40, 3000, 700, 700}[round]
		for i := 0; i < n; i++ {
			v := int32(rng.Intn(1 << 20))
			if i%3 == 0 {
				v = int32(i) * 64 // runs that collide under a weak hash
			}
			val := int32(1 + rng.Intn(3))
			sc.SetMark(v, val)
			want[v] = val
			if i%5 == 0 { // setting again overwrites and counts once
				sc.SetMark(v, val|4)
				want[v] = val | 4
			}
		}
		if sc.marked != len(want) || 4*sc.marked > len(sc.marks) {
			t.Fatalf("round %d: %d slots live of %d for %d marks", round, sc.marked, len(sc.marks), len(want))
		}
		for v, val := range want {
			if got := sc.Mark(v); got != val {
				t.Fatalf("round %d: Mark(%d) = %d, want %d", round, v, got, val)
			}
		}
		for i := 0; i < 20000; i++ {
			if v := int32(rng.Intn(1 << 20)); sc.Mark(v) != want[v] {
				t.Fatalf("round %d: Mark(%d) = %d, want %d", round, v, sc.Mark(v), want[v])
			}
		}
	}
	if len(sc.marks) < 4*20000 {
		t.Fatalf("the set shrank to %d slots", len(sc.marks))
	}
}
