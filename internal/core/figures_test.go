package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/vortree"
)

// fig1Points realizes the configuration of Figure 1 of the paper: twelve
// data objects p1..p12 (index i holds p_{i+1}) such that the 3NN set of the
// query location fig1Q is O' = {p4, p6, p7}, and the order-3 Voronoi cell
// of O' has exactly six neighboring order-3 cells obtained by the swaps
// p4→{p3, p10, p12} and p6→{p3, p5, p10} (p7 is never swapped out), giving
// MIS(O') = {p3, p5, p10, p12}. The paper's figure fixes the combinatorial
// structure, not coordinates; these coordinates were found by search and
// verified to have exactly that structure.
var fig1Points = []geom.Point{
	{X: 15.770759, Y: 80.855149}, // p1
	{X: 87.565839, Y: 27.022628}, // p2
	{X: 18.620682, Y: 31.596452}, // p3
	{X: 26.198834, Y: 63.848004}, // p4
	{X: 15.132619, Y: 35.645693}, // p5
	{X: 46.591356, Y: 32.984624}, // p6
	{X: 42.450423, Y: 40.626163}, // p7
	{X: 86.705380, Y: 85.629398}, // p8
	{X: 24.708641, Y: 18.263631}, // p9
	{X: 43.446181, Y: 77.920094}, // p10
	{X: 82.651417, Y: 11.966606}, // p11
	{X: 80.862036, Y: 52.013293}, // p12
}

var fig1Q = geom.Pt(50, 50)

var fig1Bounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

// paperID converts a 0-based diagram id to the paper's 1-based label.
func paperID(id int) int { return id + 1 }

func TestFig1MIS(t *testing.T) {
	ix, ids, err := vortree.Build(fig1Bounds, 0, fig1Points)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 12 {
		t.Fatalf("fixture built %d sites, want 12", len(ids))
	}
	knn := ix.KNN(fig1Q, 3)
	gotKNN := toPaper(knn)
	if !equalSorted(gotKNN, []int{4, 6, 7}) {
		t.Fatalf("3NN = %v, want {p4, p6, p7}", gotKNN)
	}
	ins, err := ix.INS(knn)
	if err != nil {
		t.Fatal(err)
	}
	mis, err := ix.MIS(knn, ins)
	if err != nil {
		t.Fatal(err)
	}
	gotMIS := toPaper(mis)
	if !equalSorted(gotMIS, []int{3, 5, 10, 12}) {
		t.Fatalf("MIS = %v, want {p3, p5, p10, p12} (Figure 1)", gotMIS)
	}
	// Theorem: MIS ⊆ INS.
	insSet := make(map[int]bool)
	for _, id := range ins {
		insSet[id] = true
	}
	for _, id := range mis {
		if !insSet[id] {
			t.Fatalf("MIS member p%d not in INS %v", paperID(id), toPaper(ins))
		}
	}
}

// TestFig1NeighboringCells verifies the six neighboring order-3 cells of
// Figure 1: each MIS member x enters by swapping out a specific kNN member,
// and the resulting triples match the figure's labels (6,7,12), (3,6,7),
// (3,4,7), (4,5,7), (4,7,10), (6,7,10).
func TestFig1NeighboringCells(t *testing.T) {
	ix, _, err := vortree.Build(fig1Bounds, 0, fig1Points)
	if err != nil {
		t.Fatal(err)
	}
	knn := ix.KNN(fig1Q, 3)
	ins, err := ix.INS(knn)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := ix.OrderKCell(knn, ins)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the swap (o, x) supporting each cell edge: the edge lies on
	// the bisector of exactly one kNN member o and one outside object x.
	wantTriples := map[[3]int]bool{
		{6, 7, 12}: true,
		{3, 6, 7}:  true,
		{3, 4, 7}:  true,
		{4, 5, 7}:  true,
		{4, 7, 10}: true,
		{6, 7, 10}: true,
	}
	gotTriples := make(map[[3]int]bool)
	for i := range cell {
		a, b := cell[i], cell[(i+1)%len(cell)]
		mid := geom.Mid(a, b)
		var swapO, swapX = -1, -1
		for _, o := range knn {
			for _, x := range ins {
				po, px := ix.Point(o), ix.Point(x)
				if onBisector(a, po, px) && onBisector(b, po, px) && onBisector(mid, po, px) {
					swapO, swapX = o, x
				}
			}
		}
		if swapO < 0 {
			continue // bounding-box edge
		}
		var triple []int
		for _, o := range knn {
			if o != swapO {
				triple = append(triple, paperID(o))
			}
		}
		triple = append(triple, paperID(swapX))
		sort.Ints(triple)
		gotTriples[[3]int{triple[0], triple[1], triple[2]}] = true
	}
	if len(gotTriples) != len(wantTriples) {
		t.Fatalf("found %d neighboring cells %v, want %d", len(gotTriples), keys(gotTriples), len(wantTriples))
	}
	for tr := range wantTriples {
		if !gotTriples[tr] {
			t.Errorf("missing neighboring cell V3(p%d, p%d, p%d)", tr[0], tr[1], tr[2])
		}
	}
}

func onBisector(p, a, b geom.Point) bool {
	da, db := p.Dist(a), p.Dist(b)
	return math.Abs(da-db) < 1e-6*(da+db+1)
}

func keys(m map[[3]int]bool) [][3]int {
	var out [][3]int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func toPaper(ids []int) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = paperID(id)
	}
	sort.Ints(out)
	return out
}

func equalSorted(a, b []int) bool {
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

// TestFig4ValidationEquivalence reproduces the scenario of Figure 4: the
// kNN set is invalidated exactly when the query object leaves the order-k
// Voronoi cell — equivalently, when the "green circle" through the
// farthest kNN member grows past the "red circle" through the nearest
// influential neighbor. The test walks a query across the space and checks
// that the processor's invalidation signal coincides with cell exit
// (skipping steps that land within numerical slack of the cell boundary).
func TestFig4ValidationEquivalence(t *testing.T) {
	pts := randomPoints(200, 44)
	ix, _, err := vortree.Build(testBounds, 16, pts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPlaneQuery(ix, 5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	traj := walkTrajectory(600, 3, 45)
	if _, err := q.Update(traj[0]); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range traj[1:] {
		// Compute the strict safe region of the *current* kNN set before
		// the update.
		knn := append([]int(nil), q.Current()...)
		ins, err := ix.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := ix.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		inside := cell.Contains(p)
		// Skip near-boundary steps where float tolerances may disagree.
		if nearBoundary(cell, p, 1e-6) {
			if _, err := q.Update(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		invBefore := q.Metrics().Invalidations
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
		invalidated := q.Metrics().Invalidations > invBefore
		if inside && invalidated {
			t.Fatalf("query at %v is inside the order-k cell but was invalidated", p)
		}
		if !inside && !invalidated {
			t.Fatalf("query at %v left the order-k cell but was not invalidated", p)
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d steps checked", checked)
	}
}

// nearBoundary reports whether p lies within slack of the cell boundary,
// where slack scales with the data-space extent.
func nearBoundary(cell geom.Polygon, p geom.Point, eps float64) bool {
	slack := eps * 1e3
	for i := range cell {
		s := geom.Segment{A: cell[i], B: cell[(i+1)%len(cell)]}
		if s.DistPoint(p) < slack {
			return true
		}
	}
	return false
}

// TestTheorem1OnRandomNetworks verifies Theorem 1 (MIS ⊆ INS in road
// networks) with a brute-force MIS: sample positions densely along every
// edge, compute each sample's exact kNN set, and collect the kNN sets of
// regions adjacent to the region of O'. Everything entering by a single
// swap must be an INS member.
func TestTheorem1OnRandomNetworks(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		g, err := roadnet.RandomPlanarNetwork(40, testBounds, 0.5, 0.2, int64(trial)+100)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(trial) + 200))
		sites := rng.Perm(40)[:12]
		d, err := netvor.Build(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		const k = 2
		// Reference kNN set at a random vertex.
		v0 := rng.Intn(40)
		knn := d.KNN(roadnet.VertexPosition(v0), k)
		ins, err := d.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		insSet := make(map[int]bool)
		for _, s := range ins {
			insSet[s] = true
		}
		knnSet := make(map[int]bool)
		for _, s := range knn {
			knnSet[s] = true
		}
		mis := bruteNetworkMIS(g, d, sites, knn, k)
		for _, x := range mis {
			if !insSet[x] && !knnSet[x] {
				t.Fatalf("trial %d: brute-force MIS member %d not in INS %v (knn %v)",
					trial, x, ins, knn)
			}
		}
	}
}

// bruteNetworkMIS computes the objects that can enter the kNN set by a
// single region crossing: sample positions along all edges, find samples
// whose kNN set differs from knnRef by exactly one object while being
// adjacent (consecutive samples) to a sample with set knnRef.
func bruteNetworkMIS(g *roadnet.Graph, d *netvor.Diagram, sites, knnRef []int, k int) []int {
	ref := make(map[int]bool, len(knnRef))
	for _, s := range knnRef {
		ref[s] = true
	}
	const samples = 24
	var mis []int
	seen := make(map[int]bool)
	g.Edges(func(u, v int, w float64) {
		prevSets := make([]map[int]bool, 0, samples+1)
		for i := 0; i <= samples; i++ {
			pos := roadnet.Position{U: u, V: v, T: float64(i) / samples}
			knn := d.KNN(pos, k)
			set := make(map[int]bool, k)
			for _, s := range knn {
				set[s] = true
			}
			prevSets = append(prevSets, set)
		}
		for i := 1; i <= samples; i++ {
			a, b := prevSets[i-1], prevSets[i]
			if isRef(a, ref) && !isRef(b, ref) {
				collectSwap(b, ref, &mis, seen)
			}
			if isRef(b, ref) && !isRef(a, ref) {
				collectSwap(a, ref, &mis, seen)
			}
		}
	})
	return mis
}

func isRef(set, ref map[int]bool) bool {
	if len(set) != len(ref) {
		return false
	}
	for s := range set {
		if !ref[s] {
			return false
		}
	}
	return true
}

// collectSwap records the objects of set that are not in ref, but only when
// the two sets differ by exactly one object (a true neighboring region).
func collectSwap(set, ref map[int]bool, mis *[]int, seen map[int]bool) {
	var entered []int
	for s := range set {
		if !ref[s] {
			entered = append(entered, s)
		}
	}
	if len(entered) != 1 {
		return
	}
	if !seen[entered[0]] {
		seen[entered[0]] = true
		*mis = append(*mis, entered[0])
	}
}

// TestFig2Structure builds a small fixed road network in the spirit of
// Figure 2 (order-2 network Voronoi diagram) and checks the paper's
// mid-point argument: for every pair (p, p') with p in the kNN set and p'
// in the brute-force MIS, some point b on a shortest path between them is
// equidistant from both, and no object outside kNN ∪ INS is closer to b —
// which is exactly why p' must be an order-1 Voronoi neighbor of p and
// hence a member of the INS.
func TestFig2Structure(t *testing.T) {
	// A two-corridor network with 14 vertices, like the figure's sketch.
	g := roadnet.NewGraph()
	coords := []geom.Point{
		{X: 0, Y: 100}, {X: 80, Y: 110}, {X: 160, Y: 100}, {X: 240, Y: 105}, // v1..v4 top
		{X: 320, Y: 100}, {X: 40, Y: 50}, {X: 120, Y: 55}, {X: 200, Y: 50}, // v5..v8 middle
		{X: 280, Y: 55}, {X: 0, Y: 0}, {X: 80, Y: 5}, {X: 160, Y: 0}, // v9..v12 bottom
		{X: 240, Y: 5}, {X: 320, Y: 0}, // v13, v14
	}
	for _, c := range coords {
		g.AddVertex(c)
	}
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, // top corridor
		{9, 10}, {10, 11}, {11, 12}, {12, 13}, // bottom corridor
		{0, 5}, {5, 9}, {1, 6}, {6, 10}, {2, 7}, {7, 11}, {3, 8}, {8, 12}, {4, 8}, {5, 6}, {6, 7}, {7, 8},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	sites := []int{0, 2, 4, 6, 8, 9, 11, 13, 3} // nine objects p1..p9
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	pos := roadnet.VertexPosition(7)
	knn := d.KNN(pos, k)
	ins, err := d.INS(knn)
	if err != nil {
		t.Fatal(err)
	}
	guardSet := make(map[int]bool)
	for _, s := range knn {
		guardSet[s] = true
	}
	for _, s := range ins {
		guardSet[s] = true
	}
	mis := bruteNetworkMIS(g, d, sites, knn, k)
	if len(mis) == 0 {
		t.Fatal("fixture produced an empty MIS; not exercising the theorem")
	}
	for _, x := range mis {
		if !guardSet[x] {
			t.Fatalf("MIS member %d not in kNN ∪ INS", x)
		}
	}
	// Mid-point witness: every MIS member x pairs with SOME kNN member p
	// such that the point b halfway along their shortest path satisfies
	// d(b,p) = d(b,x) with no object outside kNN ∪ INS nearer to b — the
	// construction in the paper's proof sketch (its (p7, p8) pair with
	// midpoint b in Figure 2). That witness is what makes x an order-1
	// Voronoi neighbor of p and hence an INS member.
	for _, x := range mis {
		witnessed := false
		for _, p := range knn {
			if p == x {
				continue
			}
			b, ok := equidistantPoint(g, p, x)
			if !ok {
				continue
			}
			db := g.ShortestDistances(b.Sources(g), -1)
			clean := true
			for _, s := range sites {
				if guardSet[s] {
					continue
				}
				if db[s] < db[p]-1e-9 && db[s] < db[x]-1e-9 {
					clean = false
					break
				}
			}
			if clean {
				witnessed = true
				break
			}
		}
		if !witnessed {
			t.Fatalf("MIS member %d has no mid-point witness with any kNN member", x)
		}
	}
}

// equidistantPoint finds a position b on a shortest path between vertices p
// and x with d(b,p) == d(b,x), walking the path edge by edge.
func equidistantPoint(g *roadnet.Graph, p, x int) (roadnet.Position, bool) {
	path, total, ok := g.ShortestPath(p, x)
	if !ok {
		return roadnet.Position{}, false
	}
	half := total / 2
	var acc float64
	for i := 1; i < len(path); i++ {
		w, _ := g.EdgeWeight(path[i-1], path[i])
		if acc+w >= half {
			tfrac := (half - acc) / w
			return roadnet.Position{U: path[i-1], V: path[i], T: tfrac}, true
		}
		acc += w
	}
	return roadnet.VertexPosition(x), true
}
