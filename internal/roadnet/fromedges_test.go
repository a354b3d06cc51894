package roadnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// loopBuilt builds pts and edges the mutation way, one AddVertex per point
// and one AddEdgeWeight per edge, stopping at the first refusal.
func loopBuilt(pts []geom.Point, edges []Edge) (*Graph, error) {
	g := NewGraph()
	for _, p := range pts {
		g.AddVertex(p)
	}
	for _, e := range edges {
		if err := g.AddEdgeWeight(e.U, e.V, e.W); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sameCSR fails unless g and want hold bit-identical points, counts and
// packed arrays, MinW and MaxW included.
func sameCSR(t *testing.T, g, want *Graph) {
	t.Helper()
	if !slices.EqualFunc(g.pts, want.pts, func(a, b geom.Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}) {
		t.Fatal("points differ")
	}
	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("%d edges, want %d", g.NumEdges(), want.NumEdges())
	}
	c, wc := g.CSR(), want.CSR()
	bits := func(ws []float64) []uint64 {
		out := make([]uint64, len(ws))
		for i, w := range ws {
			out[i] = math.Float64bits(w)
		}
		return out
	}
	if !slices.Equal(c.Off, wc.Off) || !slices.Equal(c.To, wc.To) || !slices.Equal(bits(c.W), bits(wc.W)) {
		t.Fatal("packed adjacency differs")
	}
	if math.Float64bits(c.MinW) != math.Float64bits(wc.MinW) || math.Float64bits(c.MaxW) != math.Float64bits(wc.MaxW) {
		t.Fatalf("MinW/MaxW = %g/%g, want %g/%g", c.MinW, c.MaxW, wc.MinW, wc.MaxW)
	}
}

// edgeList lists g's edges as FromEdges takes them: in Edges order, or
// shuffled with every other edge turned around when rng is set.
func edgeList(g *Graph, rng *rand.Rand) []Edge {
	var out []Edge
	g.Edges(func(u, v int, w float64) { out = append(out, Edge{u, v, w}) })
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i].U, out[i].V = out[i].V, out[i].U
			}
		}
	}
	return out
}

// loopGridNetwork and loopRandomPlanarNetwork are the generators as they
// were written over AddVertex and AddEdge: the same draws in the same order,
// one edge at a time into the build buffer.
func loopGridNetwork(rows, cols int, bounds geom.Rect, jitter, detour float64, seed int64) (*Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	dx := bounds.Width() / float64(cols-1)
	dy := bounds.Height() / float64(rows-1)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			jx := (rng.Float64()*2 - 1) * jitter * dx
			jy := (rng.Float64()*2 - 1) * jitter * dy
			p := geom.Pt(bounds.Min.X+float64(c)*dx+jx, bounds.Min.Y+float64(r)*dy+jy)
			p.X = min(max(p.X, bounds.Min.X), bounds.Max.X)
			p.Y = min(max(p.Y, bounds.Min.Y), bounds.Max.Y)
			g.AddVertex(p)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				w := g.Point(id(r, c)).Dist(g.Point(id(r, c+1))) * (1 + rng.Float64()*detour)
				if err := g.AddEdge(id(r, c), id(r, c+1), w); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				w := g.Point(id(r, c)).Dist(g.Point(id(r+1, c))) * (1 + rng.Float64()*detour)
				if err := g.AddEdge(id(r, c), id(r+1, c), w); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

func loopRandomPlanarNetwork(n int, bounds geom.Rect, keep, detour float64, seed int64) (*Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	tri := delaunay.New(bounds)
	g := NewGraph()
	vid := make(map[int]int)
	for len(vid) < n {
		p := geom.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
		id, err := tri.Insert(p)
		if err != nil {
			continue
		}
		vid[id] = g.AddVertex(p)
	}
	type edge struct{ a, b int }
	seen := make(map[edge]bool)
	var edges []edge
	for _, f := range tri.Triangles() {
		for i := 0; i < 3; i++ {
			a, b := f[i], f[(i+1)%3]
			if a > b {
				a, b = b, a
			}
			if !seen[edge{a, b}] {
				seen[edge{a, b}] = true
				edges = append(edges, edge{a, b})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	addEdge := func(e edge) error {
		u, v := vid[e.a], vid[e.b]
		return g.AddEdge(u, v, g.Point(u).Dist(g.Point(v))*(1+rng.Float64()*detour))
	}
	var extras []edge
	for _, e := range edges {
		if ra, rb := find(vid[e.a]), find(vid[e.b]); ra != rb {
			parent[ra] = rb
			if err := addEdge(e); err != nil {
				return nil, err
			}
		} else {
			extras = append(extras, e)
		}
	}
	for _, e := range extras {
		if rng.Float64() < keep {
			if err := addEdge(e); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// TestFromEdgesMatchesAddEdge: a graph FromEdges builds is bit for bit the
// graph a loop of AddEdgeWeight builds from the same list — points, offsets,
// neighbors and weights in list order, edge count, MinW and MaxW — on grids
// up to the benchmark's 448x448, random planar networks, lists shuffled and
// turned around, and hand-made graphs with zero-weight edges and isolated
// vertices. The generators, which now build through FromEdges, match the
// loops they were written as.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	check := func(name string, g *Graph) {
		t.Run(name, func(t *testing.T) {
			for _, order := range []*rand.Rand{nil, rng} {
				edges := edgeList(g, order)
				bulk, err := FromEdges(slices.Clone(g.pts), edges)
				if err != nil {
					t.Fatal(err)
				}
				if !sealed(bulk) {
					t.Fatal("FromEdges left a build buffer or no view")
				}
				loop, err := loopBuilt(g.pts, edges)
				if err != nil {
					t.Fatal(err)
				}
				sameCSR(t, bulk, loop)
			}
		})
	}
	big := geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))
	for _, side := range []int{2, 17, 64, 448} {
		g, err := GridNetwork(side, side+side%3, big, 0.2, 0.3, int64(side))
		if err != nil {
			t.Fatal(err)
		}
		want, err := loopGridNetwork(side, side+side%3, big, 0.2, 0.3, int64(side))
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, g, want)
		check(fmt.Sprintf("grid%d", side), g)
	}
	for _, keep := range []float64{0, 0.5, 1} {
		g, err := RandomPlanarNetwork(800, testBounds, keep, 0.3, 9)
		if err != nil {
			t.Fatal(err)
		}
		want, err := loopRandomPlanarNetwork(800, testBounds, keep, 0.3, 9)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, g, want)
		check(fmt.Sprintf("planar_keep%g", keep), g)
	}

	// Hand-made: zero weights, coincident points, isolated vertices (the
	// first, the last and some between), and no edges at all.
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%5), float64(i/10))
	}
	var edges []Edge
	for len(edges) < 60 {
		u, v := 1+rng.Intn(38), 1+rng.Intn(38)
		if u == v || u%7 == 0 || v%7 == 0 || slices.ContainsFunc(edges, func(e Edge) bool {
			return e.U == u && e.V == v || e.U == v && e.V == u
		}) {
			continue
		}
		edges = append(edges, Edge{u, v, float64(rng.Intn(3))})
	}
	for _, list := range [][]Edge{edges, nil, {{0, 39, 0}}} {
		bulk, err := FromEdges(slices.Clone(pts), list)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := loopBuilt(pts, list)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, bulk, loop)
	}
	if g, err := FromEdges(nil, nil); err != nil || g.NumVertices() != 0 || len(g.CSR().Off) != 1 {
		t.Fatalf("empty graph: %v", err)
	}
}

// TestFromEdgesRejectsAsAddEdgeWeight: for a bad list FromEdges returns no
// graph and the error a loop of AddEdgeWeight stops at — the same sentinel
// and text, naming the same edge — for out-of-range and negative ids,
// self-loops, NaN, infinite and negative weights, and parallel edges given
// twice the same way or turned around; and where a list holds more than one
// fault, the first one in list order.
func TestFromEdgesRejectsAsAddEdgeWeight(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(2, 2)}
	ok := []Edge{{0, 1, 1}, {1, 2, 0}, {2, 3, 2}}
	with := func(tail ...Edge) []Edge { return append(slices.Clone(ok), tail...) }
	cases := []struct {
		name  string
		edges []Edge
		is    error
	}{
		{"id_past_end", with(Edge{1, 5, 1}), ErrVertex},
		{"negative_id", with(Edge{-1, 2, 1}), ErrVertex},
		{"negative_second_id", with(Edge{3, -7, 1}), ErrVertex},
		{"self_loop", with(Edge{4, 4, 1}), ErrEdge},
		{"nan_weight", with(Edge{3, 4, math.NaN()}), ErrEdge},
		{"inf_weight", with(Edge{3, 4, math.Inf(1)}), ErrEdge},
		{"minus_inf_weight", with(Edge{3, 4, math.Inf(-1)}), ErrEdge},
		{"negative_weight", with(Edge{3, 4, -0.5}), ErrEdge},
		{"parallel_same_way", with(Edge{3, 4, 1}, Edge{0, 4, 1}, Edge{1, 2, 5}), ErrEdge},
		{"parallel_turned", with(Edge{3, 4, 1}, Edge{3, 2, 5}), ErrEdge},
		{"first_of_two_parallels", with(Edge{3, 4, 1}, Edge{4, 3, 1}, Edge{1, 0, 1}), ErrEdge},
		{"parallel_before_bad_id", with(Edge{2, 1, 1}, Edge{0, 9, 1}), ErrEdge},
		{"bad_id_before_parallel", with(Edge{0, 9, 1}, Edge{2, 1, 1}), ErrVertex},
		{"self_loop_before_parallel", with(Edge{2, 2, 1}, Edge{1, 0, 1}), ErrEdge},
		{"repeat_of_a_refused_edge", []Edge{{0, 1, -1}, {0, 1, 1}}, ErrEdge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := loopBuilt(pts, tc.edges)
			if want == nil || !errors.Is(want, tc.is) {
				t.Fatalf("the AddEdgeWeight loop says %v, want a %v", want, tc.is)
			}
			g, err := FromEdges(slices.Clone(pts), tc.edges)
			if g != nil || err == nil || !errors.Is(err, tc.is) || err.Error() != want.Error() {
				t.Fatalf("FromEdges = (%v, %v), the loop says %v", g, err, want)
			}
		})
	}
}

// TestFromEdgesThawMatchesTwin: a bulk-built graph thaws like any published
// one. Mutated through AddVertex, AddEdge and AddEdgeWeight, with reads
// sealing it between bursts, it ends up reading exactly like a twin that was
// built by the loop and took the same mutations.
func TestFromEdgesThawMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	base, err := RandomPlanarNetwork(200, testBounds, 0.4, 0.3, 53)
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeList(base, rng)
	g, err := FromEdges(slices.Clone(base.pts), edges)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := loopBuilt(base.pts, edges)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			if a, b := g.AddVertex(p), twin.AddVertex(p); a != b {
				t.Fatalf("AddVertex = %d, twin %d", a, b)
			}
		}
		n := g.NumVertices()
		for i := 0; i < 25; i++ {
			u, v, w := rng.Intn(n), n-1-rng.Intn(8), float64(rng.Intn(3))
			op := func(g *Graph) error { return g.AddEdge(u, v, w) }
			if i%2 == 0 {
				op = func(g *Graph) error { return g.AddEdgeWeight(v, u, w) }
			}
			err, terr := op(g), op(twin)
			if (err == nil) != (terr == nil) || err != nil && err.Error() != terr.Error() {
				t.Fatalf("bulk-built graph says %v, twin says %v", err, terr)
			}
			if err != nil {
				refused++
			}
		}
		g.CSR()
		if !sealed(g) {
			t.Fatalf("round %d: build buffer still held after a read", round)
		}
	}
	if refused == 0 {
		t.Fatal("no mutation was refused; want parallels and self-loops among them")
	}
	sameGraph(t, g, twin)
	sameCSR(t, g, twin)
}

// gridAllocs is what GridNetwork allocates, whatever the grid's size: the
// generator's random source, the point and edge lists, and FromEdges' Graph,
// CSR, three packed arrays and one row cursor.
const gridAllocs = 9

// TestGridNetworkAllocs pins GridNetwork's allocations on a 64x64 grid at
// gridAllocs: a build that allocated per vertex or per edge would need
// thousands.
func TestGridNetworkAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := GridNetwork(64, 64, testBounds, 0.2, 0.3, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > gridAllocs {
		t.Fatalf("GridNetwork(64x64) makes %.0f allocations, want at most %d", allocs, gridAllocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// BenchmarkGridNetwork times the benchmark's 448x448 street grid, built and
// packed (the CSR call is free on a bulk-built graph).
func BenchmarkGridNetwork(b *testing.B) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := GridNetwork(448, 448, bounds, 0.2, 0.3, 1)
		if err != nil {
			b.Fatal(err)
		}
		g.CSR()
	}
}
