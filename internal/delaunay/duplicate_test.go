package delaunay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// dupOracle is the test-side memory the triangulation no longer keeps: which
// point is which live vertex, and the id the next fresh point gets.
type dupOracle struct {
	at   map[geom.Point]int
	next int
}

// insert is what one Insert must answer: the live id and true for a point
// that is a vertex, else the next id.
func (o *dupOracle) insert(p geom.Point) (id int, dup bool) {
	if id, ok := o.at[p]; ok {
		return id, true
	}
	o.at[p] = o.next
	o.next++
	return o.next - 1, false
}

// vertices returns the live set ascending by id, as a checkpoint saves it.
func (o *dupOracle) vertices() []Vertex {
	vs := make([]Vertex, 0, len(o.at))
	for p, id := range o.at {
		vs = append(vs, Vertex{ID: id, P: p})
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	return vs
}

// duplicatePools are the inputs the differential test draws from. Each pool
// is small against the number of draws, so most draws repeat a point — live,
// removed earlier, or earlier in the same batch.
func duplicatePools() map[string][]geom.Point {
	var lattice, collinear, edges []geom.Point
	for x := 0; x <= 20; x++ {
		for y := 0; y <= 20; y++ {
			lattice = append(lattice, geom.Pt(float64(50*x), float64(50*y)))
		}
		collinear = append(collinear, geom.Pt(float64(50*x), 300), geom.Pt(float64(50*x), float64(50*x)))
		edges = append(edges, geom.Pt(float64(50*x), 0), geom.Pt(float64(50*x), 1000),
			geom.Pt(0, float64(50*x)), geom.Pt(1000, float64(50*x)))
	}
	// Integer points of the circle of radius 250 about (500, 500), from the
	// triples (7, 24, 25) and (15, 20, 25): exactly cocircular.
	cocircular := []geom.Point{geom.Pt(500, 500)}
	for _, d := range [][2]float64{{250, 0}, {70, 240}, {150, 200}} {
		for _, sx := range []float64{-1, 1} {
			for _, sy := range []float64{-1, 1} {
				cocircular = append(cocircular,
					geom.Pt(500+sx*d[0], 500+sy*d[1]), geom.Pt(500+sx*d[1], 500+sy*d[0]))
			}
		}
	}
	// 25 distinct points inside one cell of the link curve (a cell is about
	// 0.015 wide here), where a batch's repeats are told from its neighbors
	// by position alone.
	var oneCell []geom.Point
	for i := 0; i < 25; i++ {
		oneCell = append(oneCell, geom.Pt(100.001+0.001*float64(i%5), 100.001+0.001*float64(i/5)))
	}
	return map[string][]geom.Point{
		"one_cell":    oneCell,
		"uniform":     randomPoints(300, 71),
		"lattice":     lattice,
		"collinear":   collinear,
		"cocircular":  cocircular,
		"bounds_edge": edges,
	}
}

// TestDuplicateDetectionMatchesMapOracle: with no point → vertex map left in
// the triangulation, what Insert, InsertAll and Restore say about repeated
// points is checked against one kept by the test, over seeded random
// insert / remove / re-insert on general and degenerate inputs, across the
// version lifecycle of the snapshot store (a published branch; a branch
// abandoned half-applied, then a fresh branch of the published version).
func TestDuplicateDetectionMatchesMapOracle(t *testing.T) {
	for name, pool := range duplicatePools() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(72))
			draw := func() geom.Point { return pool[rng.Intn(len(pool))] }
			tr := New(testBounds)
			or := &dupOracle{at: map[geom.Point]int{}}
			var removed []geom.Point

			insert := func(p geom.Point) {
				t.Helper()
				want, dup := or.insert(p)
				got, err := tr.Insert(p)
				if got != want || errors.Is(err, ErrDuplicate) != dup || (err != nil && !dup) {
					t.Fatalf("Insert(%v) = %d, %v; oracle has id %d, duplicate %v", p, got, err, want, dup)
				}
			}
			remove := func() {
				t.Helper()
				if len(or.at) == 0 {
					return
				}
				vs := or.vertices()
				v := vs[rng.Intn(len(vs))]
				if err := tr.Remove(v.ID); err != nil {
					t.Fatalf("Remove(%d): %v", v.ID, err)
				}
				delete(or.at, v.P)
				removed = append(removed, v.P)
			}
			insertAll := func(batch []geom.Point) {
				t.Helper()
				want := make([]int, len(batch))
				for i, p := range batch {
					want[i], _ = or.insert(p)
				}
				got, err := tr.InsertAll(batch)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("InsertAll(%d points) = %v, %v; a loop of Insert assigns %v", len(batch), got, err, want)
				}
			}
			check := func(when string) {
				t.Helper()
				if tr.Len() != len(or.at) || tr.IDUpperBound() != or.next {
					t.Fatalf("%s: Len %d, IDUpperBound %d; oracle has %d, %d", when, tr.Len(), tr.IDUpperBound(), len(or.at), or.next)
				}
				checkAdjacency(t, tr)
				checkDelaunay(t, tr)
			}

			for round := 0; round < 6; round++ {
				for op := 0; op < 60; op++ {
					switch r := rng.Intn(10); {
					case r < 5:
						insert(draw())
					case r < 8:
						remove()
					case len(removed) > 0: // a removed vertex is in no face: its point is fresh again
						insert(removed[rng.Intn(len(removed))])
					}
				}
				// One batch with repeats inside it, of live vertices, and of
				// both at once: a point live before the batch, three times.
				batch := make([]geom.Point, 0, 48)
				for len(batch) < 40 {
					batch = append(batch, draw())
				}
				batch = append(batch, batch[3], batch[7], batch[3])
				if vs := or.vertices(); len(vs) > 0 {
					live := vs[rng.Intn(len(vs))].P
					batch = append(batch, live, live)
					batch[11] = live
				}
				// A refused call changes nothing, duplicates or not; what
				// follows would disagree with the oracle if it had.
				refused := append(slices.Clone(batch), geom.Pt(1000.5, 3), batch[0])
				if ids, err := tr.InsertAll(refused); !errors.Is(err, ErrOutOfBounds) || ids != nil {
					t.Fatalf("InsertAll with an out-of-bounds point = %v, %v; want nil, ErrOutOfBounds", ids, err)
				}
				check("after the refused batch")
				insertAll(batch)
				check(fmt.Sprintf("round %d", round))

				if round%2 == 0 {
					tr = tr.Branch() // published: the chain's newest version writes on
					continue
				}
				// A batch that aborts: its branch inserts and removes, then is
				// abandoned, and the store branches the published version
				// again. Neither what the branch added is a vertex nor what it
				// removed is gone, and the abandoned branch's face recycling
				// left the published version's free list alone.
				branch := tr.Branch()
				vs := or.vertices()
				gone := vs[rng.Intn(len(vs))]
				if err := branch.Remove(gone.ID); err != nil {
					t.Fatal(err)
				}
				added := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				if _, err := branch.Insert(added); err != nil {
					t.Fatal(err)
				}
				if _, err := branch.InsertAll([]geom.Point{draw(), gone.P, draw()}); err != nil {
					t.Fatal(err)
				}
				tr = tr.Branch()
				insert(gone.P)
				insert(added)
				check("after the abandoned branch")
			}

			// Restore: the saved sequence comes back, the next id with it.
			vs := or.vertices()
			if len(vs) < 5 {
				t.Fatalf("only %d live vertices left to restore", len(vs))
			}
			back, err := Restore(testBounds, vs, or.next)
			if err != nil {
				t.Fatal(err)
			}
			tr = back
			check("restored")
			insert(vs[1].P)
			insert(removedOrNew(or, removed))

			// A repeated point is refused with the text the map gave: the id
			// the point already has, and the id asked for.
			a, b := vs[1], vs[len(vs)-2]
			repeated := slices.Clone(vs)
			repeated[len(vs)-2].P = a.P
			want := fmt.Sprintf("restore assigned id %d, want %d (objs not ascending?)", a.ID, b.ID)
			if _, err := Restore(testBounds, repeated, or.next); err == nil || err.Error() != want {
				t.Fatalf("Restore with a repeated point: %v\nwant: %s", err, want)
			}
			// An id not above its predecessor is refused in the same words.
			repeated = slices.Clone(vs)
			repeated[3].ID = vs[2].ID
			want = fmt.Sprintf("restore assigned id %d, want %d (objs not ascending?)", vs[2].ID+1, vs[2].ID)
			if _, err := Restore(testBounds, repeated, or.next); err == nil || err.Error() != want {
				t.Fatalf("Restore with a repeated id: %v\nwant: %s", err, want)
			}
		})
	}
}

// removedOrNew returns a point that is not a live vertex: one removed
// earlier and not re-inserted since, else a new one.
func removedOrNew(or *dupOracle, removed []geom.Point) geom.Point {
	for _, p := range removed {
		if _, live := or.at[p]; !live {
			return p
		}
	}
	return geom.Pt(333.25, 777.75)
}

// TestDuplicateBatchDensities runs InsertAll on a batch sparse against the
// vertices already there, a dense one, and one into an empty triangulation:
// the duplicate check locates among the old vertices only, the link pass
// among the batch's own as well. Either way the ids are a loop's and
// (general position) so is the triangulation.
func TestDuplicateBatchDensities(t *testing.T) {
	for _, c := range []struct {
		name         string
		before, more int
	}{{"sparse", 3000, 60}, {"dense", 20, 2000}, {"empty", 0, 500}} {
		bulk, loop := New(testBounds), New(testBounds)
		seed := randomPoints(c.before, 73)
		insertLoop(t, bulk, seed)
		insertLoop(t, loop, seed)
		batch := randomPoints(c.more, 74)
		got, err := bulk.InsertAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		if want := insertLoop(t, loop, batch); !slices.Equal(got, want) {
			t.Fatalf("%s: InsertAll ids differ from the Insert loop's", c.name)
		}
		checkAdjacency(t, bulk)
		if !sameNeighbors(neighborSets(t, bulk), neighborSets(t, loop)) {
			t.Fatalf("%s: bulk-linked and insert-linked triangulations have different neighbor sets", c.name)
		}
	}
}
