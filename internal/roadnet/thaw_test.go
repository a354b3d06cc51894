package roadnet

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
)

// sealed reports whether g holds its adjacency packed and nothing else.
func sealed(g *Graph) bool { return g.view.Load() != nil && g.adj == nil }

type edgeRec struct {
	u, v int
	w    float64
}

func edgesOf(g *Graph) (out []edgeRec) {
	g.Edges(func(u, v int, w float64) { out = append(out, edgeRec{u, v, w}) })
	return out
}

func pointsOf(g *Graph) (out []geom.Point) {
	for v := 0; v < g.NumVertices(); v++ {
		out = append(out, g.Point(v))
	}
	return out
}

// sameGraph fails unless every read of g agrees with the same read of want.
func sameGraph(t *testing.T, g, want *Graph) {
	t.Helper()
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("%d vertices / %d edges, want %d / %d", g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if !g.Point(v).Eq(want.Point(v)) {
			t.Fatalf("vertex %d at %v, want %v", v, g.Point(v), want.Point(v))
		}
		nbs := g.AdjacentVertices(v)
		if !slices.Equal(nbs, want.AdjacentVertices(v)) {
			t.Fatalf("AdjacentVertices(%d) = %v, want %v", v, nbs, want.AdjacentVertices(v))
		}
		if g.Degree(v) != len(nbs) || want.Degree(v) != len(nbs) {
			t.Fatalf("Degree(%d) = %d and %d for %d neighbors", v, g.Degree(v), want.Degree(v), len(nbs))
		}
		var visited, wantVisited []edgeRec
		g.VisitEdgesFrom(v, func(to int, w float64) { visited = append(visited, edgeRec{v, to, w}) })
		want.VisitEdgesFrom(v, func(to int, w float64) { wantVisited = append(wantVisited, edgeRec{v, to, w}) })
		if !slices.Equal(visited, wantVisited) {
			t.Fatalf("VisitEdgesFrom(%d) = %v, want %v", v, visited, wantVisited)
		}
		for _, e := range visited {
			if w, ok := g.EdgeWeight(v, e.v); !ok || w != e.w {
				t.Fatalf("EdgeWeight(%d,%d) = (%g, %v), visited at %g", v, e.v, w, ok, e.w)
			}
		}
		// A vertex that is no neighbor, and the ends of the id range.
		for _, u := range []int{(v + n/2) % n, -1, n} {
			w, ok := g.EdgeWeight(v, u)
			if ww, wok := want.EdgeWeight(v, u); ok != wok || w != ww {
				t.Fatalf("EdgeWeight(%d,%d) = (%g, %v), want (%g, %v)", v, u, w, ok, ww, wok)
			}
		}
	}
	if _, ok := g.EdgeWeight(n, 0); ok {
		t.Fatalf("EdgeWeight from vertex %d of %d reads an edge", n, n)
	}
	if !slices.Equal(edgesOf(g), edgesOf(want)) {
		t.Fatal("Edges differ")
	}
	if g.Connected() != want.Connected() {
		t.Fatalf("Connected = %v, want %v", g.Connected(), want.Connected())
	}
	if n > 0 {
		src := []Source{{V: 0}, {V: n - 1, D: 1}}
		if !slices.Equal(g.ShortestDistances(src, -1), want.ShortestDistances(src, -1)) {
			t.Fatal("ShortestDistances differ")
		}
	}
}

// TestThawMatchesUnsealedTwin: a graph that is sealed — read, so that its
// build buffer is packed and released — between bursts of mutations reads, in
// the end, exactly like a twin that took the same mutations without ever
// being read: vertices, Euclidean and explicit (also zero) weights, rejected
// parallels and self-loops, edge order included.
func TestThawMatchesUnsealedTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, twin := NewGraph(), NewGraph()
	selfLoops, parallels := 0, 0
	addEdge := func(op func(*Graph) error) {
		t.Helper()
		err, terr := op(g), op(twin)
		if (err == nil) != (terr == nil) || err != nil && err.Error() != terr.Error() {
			t.Fatalf("sealed graph says %v, twin says %v", err, terr)
		}
		switch {
		case err == nil:
		case !errors.Is(err, ErrEdge):
			t.Fatalf("unexpected rejection: %v", err)
		case strings.Contains(err.Error(), "self-loop"):
			selfLoops++
		case strings.Contains(err.Error(), "parallel"):
			parallels++
		}
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 8; i++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			if a, b := g.AddVertex(p), twin.AddVertex(p); a != b {
				t.Fatalf("AddVertex = %d, twin %d", a, b)
			}
		}
		n := g.NumVertices()
		for i := 0; i < 30; i++ {
			// Few enough vertices that pairs repeat and coincide.
			u, v, w := rng.Intn(n), rng.Intn(n), 1+rng.Float64()*100
			switch i % 3 {
			case 0:
				addEdge(func(g *Graph) error { return g.AddEdge(u, v, 0) })
			case 1:
				addEdge(func(g *Graph) error { return g.AddEdge(v, u, w) })
			default:
				if i%2 == 0 {
					w = 0
				}
				addEdge(func(g *Graph) error { return g.AddEdgeWeight(u, v, w) })
			}
		}
		// Sealing is any read; a search is the read serving does first.
		if round%2 == 0 {
			g.CSR()
		} else {
			g.ShortestDistances([]Source{{V: 0}}, -1)
		}
		if !sealed(g) {
			t.Fatalf("round %d: build buffer still held after a read", round)
		}
		if c := g.CSR(); c != g.CSR() {
			t.Fatal("a sealed graph repacked")
		}
	}
	if selfLoops == 0 || parallels == 0 {
		t.Fatalf("%d self-loops and %d parallel edges rejected; want some of each", selfLoops, parallels)
	}
	if twin.view.Load() != nil {
		t.Fatal("the twin was sealed along the way")
	}
	sameGraph(t, g, twin)
}

// TestThawKeepsCSVAndWalks: a seal/thaw round trip changes no vertex point
// and no edge of Edges or its order, and random walks — which draw on the
// order AdjacentVertices lists neighbors in — visit the vertices they
// visited while the graph kept per-vertex adjacency lists (the digest was
// taken there).
func TestThawKeepsCSVAndWalks(t *testing.T) {
	g, err := GridNetwork(32, 32, testBounds, 0.2, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, edges := pointsOf(g), edgesOf(g)
	if !sealed(g) {
		t.Fatal("Edges left the build buffer behind")
	}
	g.thaw()
	if g.view.Load() != nil || len(g.adj) != g.NumVertices() {
		t.Fatal("thaw did not bring the build buffer back")
	}
	if !slices.Equal(pointsOf(g), pts) || !slices.Equal(edgesOf(g), edges) {
		t.Fatal("the graph differs after a seal/thaw round trip")
	}
	far := g.AddVertex(geom.Pt(-1, -1))
	if err := g.AddEdge(far, 0, 0); err != nil {
		t.Fatal(err)
	}
	if e := edgesOf(g); len(e) != len(edges)+1 || !slices.ContainsFunc(e, func(r edgeRec) bool { return r.u == 0 && r.v == far }) || !sealed(g) {
		t.Fatal("a mutation after thaw did not reach Edges")
	}

	g, err = GridNetwork(32, 32, testBounds, 0.2, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		r, err := RandomWalkRoute(g, rng.Intn(g.NumVertices()), 4000, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Vertices() {
			h.Write([]byte{byte(v), byte(v >> 8)})
		}
	}
	if got, want := h.Sum64(), uint64(walkDigest); got != want {
		t.Fatalf("walk digest %#x, want %#x", got, want)
	}
}

// walkDigest is TestThawKeepsCSVAndWalks's digest as computed at the parent
// of the change that made the CSR the graph.
const walkDigest = 0x4cfe2bdf8e3086df

// TestCSRConcurrentFirstReaders: eight goroutines make the first reads of a
// freshly generated grid at once; run under -race. They get one CSR.
func TestCSRConcurrentFirstReaders(t *testing.T) {
	for round := 0; round < 4; round++ {
		g, err := GridNetwork(24, 24, testBounds, 0.2, 0.3, int64(round))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		views := make([]*CSR, 8)
		for i := range views {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch i % 3 {
				case 0:
					views[i] = g.CSR()
				case 1:
					if _, ok := g.EdgeWeight(0, 1); !ok {
						t.Error("edge (0,1) missing")
					}
				default:
					edges := 0
					g.Edges(func(int, int, float64) { edges++ })
					if edges != g.NumEdges() {
						t.Errorf("Edges visited %d of %d", edges, g.NumEdges())
					}
				}
				if views[i] == nil {
					views[i] = g.CSR()
				}
			}()
		}
		wg.Wait()
		for _, c := range views {
			if c != views[0] {
				t.Fatal("concurrent first readers built more than one CSR")
			}
		}
		if !sealed(g) {
			t.Fatal("build buffer still held")
		}
	}
}
