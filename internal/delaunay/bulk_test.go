package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// insertLoop is the per-object reference InsertAll is checked against: one
// Insert per point, in input order.
func insertLoop(t *testing.T, tr *Triangulation, pts []geom.Point) []int {
	t.Helper()
	ids := make([]int, len(pts))
	for i, p := range pts {
		id, err := tr.Insert(p)
		if err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// neighborSets is neighborSnapshot with every list sorted: the Voronoi
// neighbor set of each live vertex, whatever face the ring walk started at.
func neighborSets(t *testing.T, tr *Triangulation) map[int][]int {
	t.Helper()
	snap := neighborSnapshot(t, tr)
	for _, nb := range snap {
		sort.Ints(nb)
	}
	return snap
}

// TestHilbertCurveIsContinuous checks the curve on its first 4^k cells for
// a few k: they are exactly the aligned 2^k square at the origin, and each
// cell is an edge neighbor of the one before — the property that makes a
// sort by hilbert16 a short walk between consecutive points.
func TestHilbertCurveIsContinuous(t *testing.T) {
	for _, k := range []uint{1, 4, 6} {
		side := uint32(1) << k
		cells := make([][2]uint32, side*side)
		seen := make([]bool, side*side)
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				d := hilbert16(x, y)
				if d >= side*side {
					t.Fatalf("k=%d: cell (%d,%d) at distance %d, beyond its %d-cell square", k, x, y, d, side*side)
				}
				if seen[d] {
					t.Fatalf("k=%d: distance %d taken twice", k, d)
				}
				seen[d] = true
				cells[d] = [2]uint32{x, y}
			}
		}
		for d := 1; d < len(cells); d++ {
			dx := int(cells[d][0]) - int(cells[d-1][0])
			dy := int(cells[d][1]) - int(cells[d-1][1])
			if dx*dx+dy*dy != 1 {
				t.Fatalf("k=%d: cells %d %v and %d %v are not adjacent", k, d-1, cells[d-1], d, cells[d])
			}
		}
	}
	// The curve ends at (2^16-1, 0), so the aligned 16x16 block in that
	// corner holds exactly its last 4^4 cells: the high bits take part too.
	const top = 1<<16 - 1
	var last []uint32
	for x := uint32(top - 15); x <= top; x++ {
		for y := uint32(0); y < 16; y++ {
			last = append(last, hilbert16(x, y))
		}
	}
	slices.Sort(last)
	if last[0] != math.MaxUint32-255 || last[255] != math.MaxUint32 {
		t.Fatalf("bottom-right 16x16 block spans distances %d..%d, want the last 256", last[0], last[255])
	}
}

// TestBulkInsertAllMatchesInsertLoop: the Hilbert-ordered InsertAll assigns
// the ids an Insert loop assigns — input order, first occurrence wins,
// duplicates burn nothing — on a triangulation that already has vertices,
// removed ids and burned slots, and (the points being in general position,
// where the Delaunay triangulation is unique) ends at the same neighbor
// sets.
func TestBulkInsertAllMatchesInsertLoop(t *testing.T) {
	pts := randomPoints(3000, 41)
	pts = append(pts, pts[17], pts[2999], pts[17]) // repeats inside one call
	seed := randomPoints(40, 42)
	bulk, loop := New(testBounds), New(testBounds)
	for _, tr := range []*Triangulation{bulk, loop} {
		ids := insertLoop(t, tr, seed)
		for _, id := range ids[:10] {
			if err := tr.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.PadVertex(); err != nil {
			t.Fatal(err)
		}
	}
	pts = append(pts, seed[20]) // a repeat of a vertex already there
	got, err := bulk.InsertAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	want := insertLoop(t, loop, pts)
	if !slices.Equal(got, want) {
		t.Fatalf("InsertAll ids differ from the Insert loop's")
	}
	if bulk.Len() != loop.Len() || bulk.IDUpperBound() != loop.IDUpperBound() {
		t.Fatalf("Len %d / IDUpperBound %d, loop has %d / %d", bulk.Len(), bulk.IDUpperBound(), loop.Len(), loop.IDUpperBound())
	}
	checkAdjacency(t, bulk)
	if !sameNeighbors(neighborSets(t, bulk), neighborSets(t, loop)) {
		t.Fatal("bulk-linked and insert-linked triangulations have different neighbor sets")
	}
	p := geom.Pt(500.5, 499.5)
	a, _ := bulk.Insert(p)
	b, _ := loop.Insert(p)
	if a != b {
		t.Fatalf("next Insert got id %d after InsertAll, %d after the loop", a, b)
	}
}

// TestBulkDegenerateInputIsDelaunay links fully cocircular and fully
// collinear inputs in Hilbert order and checks the result with the exact
// empty-circumcircle test.
func TestBulkDegenerateInputIsDelaunay(t *testing.T) {
	var lattice, line []geom.Point
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			lattice = append(lattice, geom.Pt(float64(50*x), float64(50*y)))
		}
		line = append(line, geom.Pt(float64(50*x), 300))
	}
	for name, pts := range map[string][]geom.Point{"lattice": lattice, "line": line} {
		tr := New(testBounds)
		if _, err := tr.InsertAll(pts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() != len(pts) {
			t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), len(pts))
		}
		checkAdjacency(t, tr)
		checkDelaunay(t, tr)
	}
}

// TestBulkInsertAllFailsUntouched: an out-of-bounds point anywhere in the
// input refuses the whole call before a single vertex is reserved.
func TestBulkInsertAllFailsUntouched(t *testing.T) {
	tr := New(testBounds)
	insertLoop(t, tr, randomPoints(50, 43))
	before := neighborSets(t, tr)
	bad := append(randomPoints(100, 44), geom.Pt(1000.5, 3))
	if ids, err := tr.InsertAll(bad); !errors.Is(err, ErrOutOfBounds) || ids != nil {
		t.Fatalf("InsertAll = %v, %v; want nil, ErrOutOfBounds", ids, err)
	}
	if tr.Len() != 50 || tr.IDUpperBound() != 50 {
		t.Fatalf("after the refused call: Len %d, IDUpperBound %d, want 50, 50", tr.Len(), tr.IDUpperBound())
	}
	if !sameNeighbors(before, neighborSets(t, tr)) {
		t.Fatal("refused InsertAll changed the triangulation")
	}
	// The first point of the refused input is new to the triangulation: it
	// gets the next id, not one the refused call burned.
	if id, err := tr.Insert(bad[0]); err != nil || id != 50 {
		t.Fatalf("Insert after the refused call = %d, %v; want 50", id, err)
	}
	frozen := New(testBounds)
	frozen.Branch()
	if _, err := frozen.InsertAll(bad[:3]); !errors.Is(err, ErrFrozen) {
		t.Fatalf("InsertAll on a frozen version: %v, want ErrFrozen", err)
	}
}

// TestBulkSlotLimit: vertex and face indices are int32, so whatever grows
// the vertex table refuses to grow it past maxSlots — checked on the
// arithmetic, since reaching the limit for real takes 16 GB of points.
func TestBulkSlotLimit(t *testing.T) {
	tr := New(testBounds) // 3 slots: the super corners
	if err := tr.admit(maxSlots - 3); err != nil {
		t.Fatalf("admit up to the limit: %v", err)
	}
	if err := tr.admit(maxSlots - 2); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("admit past the limit: %v, want ErrTooManyVertices", err)
	}
	if err := tr.admit(math.MaxInt); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("admit(MaxInt): %v, want ErrTooManyVertices", err)
	}
	for _, nextID := range []int{maxSlots - 2, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt} {
		if _, err := Restore(testBounds, nil, nextID); !errors.Is(err, ErrTooManyVertices) {
			t.Fatalf("Restore(nextID %d): %v, want ErrTooManyVertices", nextID, err)
		}
	}
}

// TestBulkRestoreMatchesPadLoop: Restore reproduces what inserting the live
// vertices and padding the burned ids one at a time, in id order, builds —
// ids, next id, duplicate index and neighbor sets.
func TestBulkRestoreMatchesPadLoop(t *testing.T) {
	pts := randomPoints(2000, 45)
	rng := rand.New(rand.NewSource(46))
	var vs []Vertex
	loop := New(testBounds)
	for id, p := range pts {
		if rng.Intn(3) == 0 {
			if _, err := loop.PadVertex(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		vs = append(vs, Vertex{ID: id, P: p})
		if got, err := loop.Insert(p); err != nil || got != id {
			t.Fatalf("reference insert: id %d, %v; want %d", got, err, id)
		}
	}
	const nextID = 2100 // the last hundred ids burned too
	for loop.IDUpperBound() < nextID {
		loop.PadVertex()
	}
	bulk, err := Restore(testBounds, vs, nextID)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != loop.Len() || bulk.IDUpperBound() != nextID {
		t.Fatalf("Len %d, IDUpperBound %d; want %d, %d", bulk.Len(), bulk.IDUpperBound(), loop.Len(), nextID)
	}
	checkAdjacency(t, bulk)
	if !sameNeighbors(neighborSets(t, bulk), neighborSets(t, loop)) {
		t.Fatal("restored and insert-built triangulations have different neighbor sets")
	}
	if id, err := bulk.Insert(vs[5].P); !errors.Is(err, ErrDuplicate) || id != vs[5].ID {
		t.Fatalf("re-inserting a restored point = %d, %v; want %d, ErrDuplicate", id, err, vs[5].ID)
	}
	if id, err := bulk.Insert(pts[0].Add(geom.Pt(0.25, 0.25))); err != nil || id != nextID {
		t.Fatalf("first Insert after Restore = %d, %v; want %d", id, err, nextID)
	}
}
