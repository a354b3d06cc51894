package roadnet

import (
	"fmt"
	"math/rand"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// GridNetwork generates a rows×cols grid road network inside bounds, the
// classic synthetic stand-in for a Manhattan-style street map. Vertex
// positions are jittered by jitter (a fraction of the cell size, in
// [0, 0.4]) and edge weights are the Euclidean length inflated by a random
// detour factor in [1, 1+detour], so the Euclidean distance stays a lower
// bound of the network distance. The generator is deterministic in seed.
func GridNetwork(rows, cols int, bounds geom.Rect, jitter, detour float64, seed int64) (*Graph, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("roadnet: grid needs at least 2x2, got %dx%d", rows, cols)
	}
	if jitter < 0 || jitter > 0.4 {
		return nil, fmt.Errorf("roadnet: jitter %g out of [0, 0.4]", jitter)
	}
	if detour < 0 {
		return nil, fmt.Errorf("roadnet: negative detour %g", detour)
	}
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
			// Clamp into bounds so positions remain in the data space.
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

// RandomPlanarNetwork generates a connected planar road network by
// triangulating n random vertices and keeping each non-tree Delaunay edge
// with probability keep (a spanning tree is always kept, so the result is
// connected). keep=1 yields the full triangulation; keep≈0.3 resembles a
// sparse rural network. Weights are Euclidean lengths inflated by a random
// detour factor in [1, 1+detour].
func RandomPlanarNetwork(n int, bounds geom.Rect, keep, detour float64, seed int64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("roadnet: need at least 3 vertices, got %d", n)
	}
	if keep < 0 || keep > 1 {
		return nil, fmt.Errorf("roadnet: keep %g out of [0,1]", keep)
	}
	rng := rand.New(rand.NewSource(seed))
	tri := delaunay.New(bounds)
	g := NewGraph()
	vid := make(map[int]int) // triangulation id -> graph vertex id
	for len(vid) < n {
		p := geom.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
		id, err := tri.Insert(p)
		if err != nil {
			continue // duplicate draw: retry
		}
		vid[id] = g.AddVertex(p)
	}
	// Collect Delaunay edges.
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
	// Kruskal-style spanning tree over a random order, then keep the rest
	// with probability keep.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	addEdge := func(e edge) error {
		u, v := vid[e.a], vid[e.b]
		w := g.Point(u).Dist(g.Point(v)) * (1 + rng.Float64()*detour)
		return g.AddEdge(u, v, w)
	}
	var extras []edge
	for _, e := range edges {
		ra, rb := find(vid[e.a]), find(vid[e.b])
		if ra != rb {
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

// RandomWalkRoute generates a route of approximately the given network
// length by walking randomly from start, avoiding immediate backtracking
// when possible. Deterministic in seed.
func RandomWalkRoute(g *Graph, start int, length float64, seed int64) (*Route, error) {
	if start < 0 || start >= g.NumVertices() {
		return nil, fmt.Errorf("%w: start %d", ErrVertex, start)
	}
	rng := rand.New(rand.NewSource(seed))
	verts := []int{start}
	cur, prev := start, -1
	var total float64
	for total < length {
		nbs := g.AdjacentVertices(cur)
		if len(nbs) == 0 {
			break
		}
		cand := nbs
		if len(nbs) > 1 && prev >= 0 {
			cand = make([]int, 0, len(nbs)-1)
			for _, v := range nbs {
				if v != prev {
					cand = append(cand, v)
				}
			}
		}
		next := cand[rng.Intn(len(cand))]
		w, _ := g.EdgeWeight(cur, next)
		total += w
		verts = append(verts, next)
		prev, cur = cur, next
	}
	return NewRoute(g, verts)
}
