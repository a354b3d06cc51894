// Package roadnet provides the road-network substrate of Section IV of the
// paper: a planar undirected weighted graph with a geometric embedding,
// shortest-path machinery (Dijkstra, bidirectional Dijkstra,
// Floyd–Warshall for testing), positions on edges for moving query objects,
// and network generators (grid and random planar via Delaunay).
package roadnet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// ErrVertex is returned for out-of-range vertex ids.
var ErrVertex = errors.New("roadnet: invalid vertex")

// ErrEdge is returned for invalid edge definitions.
var ErrEdge = errors.New("roadnet: invalid edge")

// halfEdge is one direction of an undirected edge in the build buffer.
type halfEdge struct {
	to int
	w  float64
}

// Graph is an undirected weighted graph with 2D vertex coordinates. Data
// objects live on vertices, matching the paper's model ("we assume that the
// data objects are all at the vertices").
//
// The packed CSR (see CSR) is the graph: every read of the adjacency, the
// searches' and the accessors' alike, goes through it. Mutations collect in
// adj, a per-vertex build buffer that exists only between a mutation and the
// next read: the first CSR call packs it, publishes the view and releases it,
// and a mutation of a published graph unpacks the view into a fresh buffer
// first (thaw). A graph that stops mutating — the serving lifecycle — so
// holds its edges once, in three flat arrays.
type Graph struct {
	pts   []geom.Point
	edges int

	adj [][]halfEdge // nil while view is published
	mu  sync.Mutex   // serializes the first readers' build of view

	// view is the packed adjacency, published atomically so frozen index
	// snapshots sharing this graph can search it from many goroutines. The
	// graph holds no cost counter — a search that reports relaxations
	// counts and returns them itself — so concurrent readers write no
	// shared cache line.
	view atomic.Pointer[CSR]
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// thaw readies the build buffer for a mutation: a published view is unpacked
// into it, edge order kept, and dropped. The lists are cut from one array at
// full capacity, so the first append to one moves it out.
func (g *Graph) thaw() {
	c := g.view.Load()
	if c == nil {
		return
	}
	half := make([]halfEdge, len(c.To))
	for i, to := range c.To {
		half[i] = halfEdge{int(to), c.W[i]}
	}
	g.adj = make([][]halfEdge, len(g.pts))
	for v := range g.adj {
		g.adj[v] = half[c.Off[v]:c.Off[v+1]:c.Off[v+1]]
	}
	g.view.Store(nil)
}

// AddVertex adds a vertex at p and returns its id.
func (g *Graph) AddVertex(p geom.Point) int {
	g.thaw()
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	return len(g.pts) - 1
}

// AddEdge connects u and v with weight w; w <= 0 means "use the Euclidean
// distance between the embeddings". Parallel edges and self-loops are
// rejected.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || v < 0 || u >= len(g.pts) || v >= len(g.pts) {
		return fmt.Errorf("%w: (%d,%d)", ErrVertex, u, v)
	}
	if u == v {
		return fmt.Errorf("%w: self-loop at %d", ErrEdge, u)
	}
	if w <= 0 {
		w = g.pts[u].Dist(g.pts[v])
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: weight %g on (%d,%d)", ErrEdge, w, u, v)
	}
	return g.addEdgeChecked(u, v, w)
}

// AddEdgeWeight connects u and v with the exact weight w (w >= 0, finite;
// zero is legal and models coincident junctions). AddEdge's "w <= 0 means
// Euclidean" convention makes an explicit zero weight inexpressible there;
// subnetwork extraction, which must transplant weights verbatim, and tests
// exercising zero-weight edges use this form.
func (g *Graph) AddEdgeWeight(u, v int, w float64) error {
	if u < 0 || v < 0 || u >= len(g.pts) || v >= len(g.pts) {
		return fmt.Errorf("%w: (%d,%d)", ErrVertex, u, v)
	}
	if u == v {
		return fmt.Errorf("%w: self-loop at %d", ErrEdge, u)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: weight %g on (%d,%d)", ErrEdge, w, u, v)
	}
	return g.addEdgeChecked(u, v, w)
}

// addEdgeChecked inserts an edge whose endpoints and weight have been
// validated, rejecting parallels.
func (g *Graph) addEdgeChecked(u, v int, w float64) error {
	g.thaw()
	for _, he := range g.adj[u] {
		if he.to == v {
			return fmt.Errorf("%w: parallel edge (%d,%d)", ErrEdge, u, v)
		}
	}
	g.adj[u] = append(g.adj[u], halfEdge{v, w})
	g.adj[v] = append(g.adj[v], halfEdge{u, w})
	g.edges++
	return nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.pts) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Point returns the embedding of vertex v.
func (g *Graph) Point(v int) geom.Point { return g.pts[v] }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	c := g.CSR()
	return int(c.Off[v+1] - c.Off[v])
}

// AdjacentVertices returns the vertices adjacent to v.
func (g *Graph) AdjacentVertices(v int) []int {
	c := g.CSR()
	out := make([]int, 0, c.Off[v+1]-c.Off[v])
	for _, to := range c.To[c.Off[v]:c.Off[v+1]] {
		out = append(out, int(to))
	}
	return out
}

// EdgeWeight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	if u < 0 || u >= len(g.pts) {
		return 0, false
	}
	c := g.CSR()
	for e := c.Off[u]; e < c.Off[u+1]; e++ {
		if int(c.To[e]) == v {
			return c.W[e], true
		}
	}
	return 0, false
}

// Edges calls fn for every undirected edge once (with u < v).
func (g *Graph) Edges(fn func(u, v int, w float64)) {
	c := g.CSR()
	for u := range g.pts {
		for e := c.Off[u]; e < c.Off[u+1]; e++ {
			if v := int(c.To[e]); u < v {
				fn(u, v, c.W[e])
			}
		}
	}
}

// CSR is the packed adjacency of a graph in compressed-sparse-row layout:
// the half-edges of vertex v are To[Off[v]:Off[v+1]], in the order the edges
// were added, with parallel weights in W (Off has length V+1). Search hot
// paths iterate it with three flat array reads per edge instead of chasing
// per-vertex slice headers; weights stay float64 so distances are
// bit-identical to the adjacency-list searches. A CSR is immutable once
// published.
type CSR struct {
	Off []int32
	To  []int32
	W   []float64
}

// CSR returns the packed adjacency, packing the build buffer, publishing the
// result and releasing the buffer on first use after a mutation. Concurrent
// first readers build once: the slow path holds the mutex, the fast path is
// one atomic load. Mutating the graph while other goroutines read it is not
// supported.
func (g *Graph) CSR() *CSR {
	if c := g.view.Load(); c != nil {
		return c
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.view.Load(); c != nil {
		return c
	}
	n := len(g.pts)
	m := 2 * g.edges
	c := &CSR{Off: make([]int32, n+1), To: make([]int32, m), W: make([]float64, m)}
	pos := int32(0)
	for v, a := range g.adj {
		c.Off[v] = pos
		for _, he := range a {
			c.To[pos] = int32(he.to)
			c.W[pos] = he.w
			pos++
		}
	}
	c.Off[n] = pos
	g.adj = nil
	g.view.Store(c)
	return c
}

// Source is a Dijkstra seed: vertex V is reachable at initial cost D.
// Multi-seed searches model query positions in the middle of an edge.
type Source struct {
	V int
	D float64
}

// ShortestDistances runs Dijkstra from the given seeds and returns the
// distance to every vertex (math.Inf(1) for unreachable vertices). A
// negative stopAt means "settle everything"; otherwise the search stops
// once the settled distance exceeds stopAt.
func (g *Graph) ShortestDistances(sources []Source, stopAt float64) []float64 {
	dist := make([]float64, len(g.pts))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var h heap4
	for _, s := range sources {
		if s.V < 0 || s.V >= len(g.pts) {
			continue
		}
		if s.D < dist[s.V] {
			dist[s.V] = s.D
			h.push(heapItem{d: s.D, v: int32(s.V)})
		}
	}
	c := g.CSR()
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		if stopAt >= 0 && it.d > stopAt {
			break
		}
		for i := c.Off[it.v]; i < c.Off[it.v+1]; i++ {
			u := c.To[i]
			if nd := it.d + c.W[i]; nd < dist[u] {
				dist[u] = nd
				h.push(heapItem{d: nd, v: u})
			}
		}
	}
	return dist
}

// ShortestPath returns the shortest path between two vertices and its
// length using bidirectional Dijkstra. ok is false when disconnected.
func (g *Graph) ShortestPath(s, t int) (path []int, d float64, ok bool) {
	if s < 0 || t < 0 || s >= len(g.pts) || t >= len(g.pts) {
		return nil, 0, false
	}
	if s == t {
		return []int{s}, 0, true
	}
	c := g.CSR()
	distF := map[int32]float64{int32(s): 0}
	distB := map[int32]float64{int32(t): 0}
	prevF := map[int32]int32{}
	prevB := map[int32]int32{}
	doneF := map[int32]bool{}
	doneB := map[int32]bool{}
	var hf, hb heap4
	hf.push(heapItem{d: 0, v: int32(s)})
	hb.push(heapItem{d: 0, v: int32(t)})
	best := math.Inf(1)
	meet := int32(-1)

	expand := func(h *heap4, dist map[int32]float64, prev map[int32]int32, done map[int32]bool,
		otherDist map[int32]float64) {
		it := h.pop()
		if done[it.v] {
			return
		}
		done[it.v] = true
		if od, ok := otherDist[it.v]; ok {
			if total := it.d + od; total < best {
				best, meet = total, it.v
			}
		}
		for i := c.Off[it.v]; i < c.Off[it.v+1]; i++ {
			u := c.To[i]
			nd := it.d + c.W[i]
			if cur, ok := dist[u]; !ok || nd < cur {
				dist[u] = nd
				prev[u] = it.v
				h.push(heapItem{d: nd, v: u})
			}
		}
	}

	for len(hf) > 0 && len(hb) > 0 {
		if hf[0].d+hb[0].d >= best {
			break
		}
		if hf[0].d <= hb[0].d {
			expand(&hf, distF, prevF, doneF, distB)
		} else {
			expand(&hb, distB, prevB, doneB, distF)
		}
	}
	if meet == -1 {
		return nil, 0, false
	}
	// Stitch the two half-paths at the meeting vertex.
	var fwd []int
	for v := meet; ; {
		fwd = append(fwd, int(v))
		p, ok := prevF[v]
		if !ok {
			break
		}
		v = p
	}
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	for v := meet; ; {
		p, ok := prevB[v]
		if !ok {
			break
		}
		v = p
		fwd = append(fwd, int(v))
	}
	return fwd, best, true
}

// Distance returns the network distance between vertices s and t
// (math.Inf(1) when disconnected).
func (g *Graph) Distance(s, t int) float64 {
	_, d, ok := g.ShortestPath(s, t)
	if !ok {
		return math.Inf(1)
	}
	return d
}

// FloydWarshall returns the full all-pairs distance matrix. It is O(V^3)
// and exists as ground truth for tests on small graphs.
func (g *Graph) FloydWarshall() [][]float64 {
	n := len(g.pts)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	g.Edges(func(u, v int, w float64) {
		if w < d[u][v] {
			d[u][v], d[v][u] = w, w
		}
	})
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

// Connected reports whether the graph is connected (true for empty graphs).
func (g *Graph) Connected() bool {
	n := len(g.pts)
	if n == 0 {
		return true
	}
	c := g.CSR()
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range c.To[c.Off[v]:c.Off[v+1]] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, int(u))
			}
		}
	}
	return count == n
}
