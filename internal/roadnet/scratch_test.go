package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestHeap4Ordering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h heap4
	var want []heapItem
	for i := 0; i < 500; i++ {
		// Few distinct distances, so the (d, v) tie-break is exercised hard.
		it := heapItem{d: float64(rng.Intn(8)), v: int32(rng.Intn(64))}
		h.push(it)
		want = append(want, it)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].d != want[j].d {
			return want[i].d < want[j].d
		}
		return want[i].v < want[j].v
	})
	for i, w := range want {
		got := h.pop()
		if got.d != w.d || got.v != w.v {
			t.Fatalf("pop %d = (%g, %d), want (%g, %d)", i, got.d, got.v, w.d, w.v)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// boundedSearch runs Dijkstra from src over g in sc until it has settled
// settle vertices, the way the serving searches drive the scratch. A model,
// when given, is told every tentative distance the scratch is and has to
// agree on which of them improve.
func boundedSearch(sc *SearchScratch, g *Graph, src int32, settle int, model map[int32]float64) {
	c := g.CSR()
	improve := func(v int32, d float64) {
		better := sc.TryImprove(v, d)
		if model != nil {
			if cur, ok := model[v]; better != (!ok || d < cur) {
				panic("TryImprove disagrees with the model")
			}
		}
		if better {
			if model != nil {
				model[v] = d
			}
			sc.Push(d, v)
		}
	}
	sc.Begin()
	improve(src, 0)
	for settle > 0 {
		d, v, ok := sc.Pop()
		if !ok {
			return
		}
		if d > sc.DistAt(v) {
			continue
		}
		settle--
		for e := c.Off[v]; e < c.Off[v+1]; e++ {
			improve(c.To[e], d+c.W[e])
		}
	}
}

// TestSparseDistMatchesMapModel: the hashed distances read, after every one
// of 10k searches alternating between a large and a small graph on one
// scratch, exactly as a map filled beside them — for every vertex of the
// larger graph, so also for those an earlier search reached (stale entries of
// a past epoch) and for ids past the graph. The table is sized by the most
// vertices one search reached, whatever the graph: a search over a graph a
// hundred times larger leaves it as it was. Nothing is cleared between
// searches and nothing is allocated.
func TestSparseDistMatchesMapModel(t *testing.T) {
	big, err := GridNetwork(24, 24, testBounds, 0.2, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	small, err := GridNetwork(7, 7, testBounds, 0.2, 0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	var sc SearchScratch
	if sc.Reached(0) || !math.IsInf(sc.DistAt(0), 1) {
		t.Fatal("the zero scratch has reached a vertex")
	}
	rng := rand.New(rand.NewSource(12))
	model := map[int32]float64{}
	widest := 0
	for i := 0; i < 10000; i++ {
		g := []*Graph{small, big}[i%2]
		if i%7 == 0 {
			g = small // two in a row now and then
		}
		clear(model)
		// Mostly a few dozen vertices, as in serving; sometimes all of them.
		settle := 1 + rng.Intn(40)
		if i%97 == 0 {
			settle = g.NumVertices()
		}
		boundedSearch(&sc, g, int32(rng.Intn(g.NumVertices())), settle, model)
		if sc.dist.live != len(model) {
			t.Fatalf("search %d: %d vertices reached, model has %d", i, sc.dist.live, len(model))
		}
		widest = max(widest, len(model))
		for v := int32(0); int(v) < big.NumVertices()+3; v++ {
			want, ok := model[v]
			if !ok {
				want = math.Inf(1)
			}
			if sc.Reached(v) != ok || sc.DistAt(v) != want {
				t.Fatalf("search %d: vertex %d reads (%g, %v), model (%g, %v)", i, v, sc.DistAt(v), sc.Reached(v), want, ok)
			}
		}
	}
	huge, err := GridNetwork(240, 240, testBounds, 0.2, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	boundedSearch(&sc, huge, int32(huge.NumVertices()/2), 40, nil)
	slots := 64
	for 2*widest > slots { // at most half full
		slots *= 2
	}
	if len(sc.dist.slots) != slots {
		t.Fatalf("%d slots after searches that reached %d vertices at most, want %d", len(sc.dist.slots), widest, slots)
	}
	// The mark set is independent of the distance state.
	sc.MarkBegin()
	sc.SetMark(2, 7)
	sc.Begin()
	if got := sc.Mark(2); got != 7 {
		t.Fatalf("Mark across Begin = %d, want 7", got)
	}
	sc.MarkBegin()
	if sc.Mark(2) != 0 {
		t.Fatal("Mark survived MarkBegin")
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		i++
		boundedSearch(&sc, []*Graph{small, big}[i%2], int32(i%49), 40, nil)
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per steady-state search, want 0", allocs)
	}
}

// TestCSRMatchesAdjacency: the CSR of a graph built from a list of edges
// holds, per vertex, that vertex's edges of the list in list order — whether
// the graph is packed once at the end or packed and thawed along the way.
func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 60
	type half struct {
		to int32
		w  float64
	}
	for _, sealEvery := range []int{0, 1, 17} {
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddVertex(geom.Pt(rng.Float64()*100, rng.Float64()*100))
		}
		want := make([][]half, n)
		seen := map[[2]int]bool{}
		for len(seen) < 150 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || seen[[2]int{u, v}] || seen[[2]int{v, u}] {
				continue
			}
			seen[[2]int{u, v}] = true
			// An explicit zero weight must survive: AddEdgeWeight does not
			// substitute the Euclidean length the way AddEdge does.
			w := float64(rng.Intn(4))
			if err := g.AddEdgeWeight(u, v, w); err != nil {
				t.Fatal(err)
			}
			want[u] = append(want[u], half{int32(v), w})
			want[v] = append(want[v], half{int32(u), w})
			if sealEvery > 0 && len(seen)%sealEvery == 0 {
				g.CSR()
			}
		}
		c := g.CSR()
		if len(c.Off) != n+1 || int(c.Off[n]) != 2*g.NumEdges() || len(c.To) != 2*len(seen) || len(c.W) != len(c.To) {
			t.Fatalf("CSR shape: %d offsets, %d half-edges, %d weights for %d edges", len(c.Off), len(c.To), len(c.W), len(seen))
		}
		for v := 0; v < n; v++ {
			var got []half
			for e := c.Off[v]; e < c.Off[v+1]; e++ {
				got = append(got, half{c.To[e], c.W[e]})
			}
			if !slices.Equal(got, want[v]) {
				t.Fatalf("sealing every %d: vertex %d has %v, the edge list says %v", sealEvery, v, got, want[v])
			}
		}
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
			sc.marks.epoch = math.MaxUint32 - 1 // rounds 4 and 5 straddle the wrap
		}
		sc.MarkBegin()
		if round == 5 && sc.marks.epoch != 1 {
			t.Fatalf("epoch after the wrap = %d, want 1", sc.marks.epoch)
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
		if sc.marks.live != len(want) || 4*sc.marks.live > len(sc.marks.slots) {
			t.Fatalf("round %d: %d slots live of %d for %d marks", round, sc.marks.live, len(sc.marks.slots), len(want))
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
	if len(sc.marks.slots) < 4*20000 {
		t.Fatalf("the set shrank to %d slots", len(sc.marks.slots))
	}
}
