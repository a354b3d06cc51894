package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// lineGraph builds 0-1-2-...-(n-1) with unit weights.
func lineGraph(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(geom.Pt(float64(i), 0))
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i-1, i, 1); err != nil {
			panic(err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex(geom.Pt(0, 0))
	b := g.AddVertex(geom.Pt(3, 4))
	if err := g.AddEdge(a, 7, 1); err == nil {
		t.Error("expected error for unknown vertex")
	}
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("expected error for self-loop")
	}
	if err := g.AddEdge(a, b, 0); err != nil { // 0 means Euclidean
		t.Fatal(err)
	}
	if w, ok := g.EdgeWeight(a, b); !ok || w != 5 {
		t.Errorf("EdgeWeight = %g,%v want 5,true", w, ok)
	}
	if err := g.AddEdge(b, a, 2); err == nil {
		t.Error("expected error for parallel edge")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestShortestDistancesLine(t *testing.T) {
	g := lineGraph(6)
	dist := g.ShortestDistances([]Source{{V: 0, D: 0}}, -1)
	for i := 0; i < 6; i++ {
		if dist[i] != float64(i) {
			t.Errorf("dist[%d] = %g, want %d", i, dist[i], i)
		}
	}
	// Early stop: distances beyond the cutoff may be unsettled.
	dist = g.ShortestDistances([]Source{{V: 0, D: 0}}, 2)
	if dist[1] != 1 || dist[2] != 2 {
		t.Errorf("bounded Dijkstra wrong near the source: %v", dist)
	}
}

func TestMultiSourceDistances(t *testing.T) {
	g := lineGraph(10)
	// Position in the middle of edge (4,5) at t=0.25: offsets 0.25 and 0.75.
	pos := Position{U: 4, V: 5, T: 0.25}
	dist := g.ShortestDistances(pos.Sources(g), -1)
	if math.Abs(dist[4]-0.25) > 1e-12 || math.Abs(dist[5]-0.75) > 1e-12 {
		t.Fatalf("endpoint distances wrong: %g, %g", dist[4], dist[5])
	}
	if math.Abs(dist[0]-4.25) > 1e-12 || math.Abs(dist[9]-4.75) > 1e-12 {
		t.Fatalf("far distances wrong: %g, %g", dist[0], dist[9])
	}
}

func TestShortestPathMatchesFloydWarshall(t *testing.T) {
	g, err := RandomPlanarNetwork(60, testBounds, 0.5, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := g.FloydWarshall()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s, u := rng.Intn(60), rng.Intn(60)
		path, d, ok := g.ShortestPath(s, u)
		if !ok {
			t.Fatalf("no path %d->%d in connected graph", s, u)
		}
		if math.Abs(d-fw[s][u]) > 1e-9*(fw[s][u]+1) {
			t.Fatalf("ShortestPath(%d,%d) = %g, want %g", s, u, d, fw[s][u])
		}
		// Verify the returned path is real and has the claimed length.
		var sum float64
		for i := 1; i < len(path); i++ {
			w, ok := g.EdgeWeight(path[i-1], path[i])
			if !ok {
				t.Fatalf("path hop (%d,%d) is not an edge", path[i-1], path[i])
			}
			sum += w
		}
		if path[0] != s || path[len(path)-1] != u {
			t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], s, u)
		}
		if math.Abs(sum-d) > 1e-9*(d+1) {
			t.Fatalf("path length %g != reported %g", sum, d)
		}
	}
}

func TestDisconnectedPath(t *testing.T) {
	g := NewGraph()
	g.AddVertex(geom.Pt(0, 0))
	g.AddVertex(geom.Pt(1, 0))
	if _, _, ok := g.ShortestPath(0, 1); ok {
		t.Error("found path in disconnected graph")
	}
	if d := g.Distance(0, 1); !math.IsInf(d, 1) {
		t.Errorf("Distance = %g, want +Inf", d)
	}
}

func TestGridNetworkShape(t *testing.T) {
	g, err := GridNetwork(5, 7, testBounds, 0.1, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 35 {
		t.Errorf("vertices = %d, want 35", g.NumVertices())
	}
	wantEdges := 5*6 + 4*7 // horizontal + vertical
	if g.NumEdges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if !g.Connected() {
		t.Error("grid not connected")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !testBounds.Contains(g.Point(v)) {
			t.Errorf("vertex %d at %v escapes bounds", v, g.Point(v))
		}
	}
	if _, err := GridNetwork(1, 5, testBounds, 0, 0, 1); err == nil {
		t.Error("expected error for 1-row grid")
	}
}

func TestRandomPlanarNetworkConnected(t *testing.T) {
	for _, keep := range []float64{0, 0.4, 1} {
		g, err := RandomPlanarNetwork(150, testBounds, keep, 0.2, 7)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != 150 {
			t.Errorf("keep=%g: vertices = %d, want 150", keep, g.NumVertices())
		}
		if !g.Connected() {
			t.Errorf("keep=%g: network not connected", keep)
		}
		if g.NumEdges() < 149 {
			t.Errorf("keep=%g: %d edges, below spanning tree size", keep, g.NumEdges())
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, _ := RandomPlanarNetwork(50, testBounds, 0.5, 0.2, 42)
	b, _ := RandomPlanarNetwork(50, testBounds, 0.5, 0.2, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for v := 0; v < 50; v++ {
		if !a.Point(v).Eq(b.Point(v)) {
			t.Fatal("same seed produced different vertices")
		}
	}
}

func TestPositionBasics(t *testing.T) {
	g := lineGraph(4)
	p := Position{U: 1, V: 2, T: 0.5}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if got := p.Point(g); !got.Eq(geom.Pt(1.5, 0)) {
		t.Errorf("Point = %v, want (1.5, 0)", got)
	}
	if v, ok := VertexPosition(2).AtVertex(); !ok || v != 2 {
		t.Errorf("AtVertex = %d,%v", v, ok)
	}
	if err := (Position{U: 0, V: 2, T: 0.5}).Validate(g); err == nil {
		t.Error("expected error for non-edge position")
	}
	if err := (Position{U: 0, V: 1, T: 1.5}).Validate(g); err == nil {
		t.Error("expected error for fraction out of range")
	}
	if d := g.DistanceTo(p, 3); math.Abs(d-1.5) > 1e-12 {
		t.Errorf("DistanceTo = %g, want 1.5", d)
	}
}

func TestRoute(t *testing.T) {
	g := lineGraph(5)
	r, err := NewRoute(g, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() != 4 {
		t.Errorf("Length = %g, want 4", r.Length())
	}
	p := r.PositionAt(2.5)
	if p.U != 2 || p.V != 3 || math.Abs(p.T-0.5) > 1e-12 {
		t.Errorf("PositionAt(2.5) = %+v", p)
	}
	if v, ok := r.PositionAt(-1).AtVertex(); !ok || v != 0 {
		t.Errorf("PositionAt(-1) = %d,%v", v, ok)
	}
	if v, ok := r.PositionAt(99).AtVertex(); !ok || v != 4 {
		t.Errorf("PositionAt(99) = %d,%v", v, ok)
	}
	if _, err := NewRoute(g, []int{0, 2}); err == nil {
		t.Error("expected error for non-edge hop")
	}
	if _, err := NewRoute(g, nil); err == nil {
		t.Error("expected error for empty route")
	}
}

func TestRandomWalkRoute(t *testing.T) {
	g, err := GridNetwork(8, 8, testBounds, 0.1, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RandomWalkRoute(g, 0, 2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() < 2000 {
		t.Errorf("walk length %g, want >= 2000", r.Length())
	}
	// Same seed, same walk.
	r2, _ := RandomWalkRoute(g, 0, 2000, 10)
	if r.Length() != r2.Length() {
		t.Error("walk not deterministic")
	}
}

func BenchmarkDijkstraGrid64(b *testing.B) {
	g, err := GridNetwork(64, 64, testBounds, 0.2, 0.3, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestDistances([]Source{{V: i % g.NumVertices(), D: 0}}, -1)
	}
}

func BenchmarkBidirectional(b *testing.B) {
	g, err := GridNetwork(64, 64, testBounds, 0.2, 0.3, 12)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(i%n, (i*7919+13)%n)
	}
}
