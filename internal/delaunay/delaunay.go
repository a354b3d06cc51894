// Package delaunay implements an incremental Delaunay triangulation of
// points in the plane. The order-1 Voronoi diagram used by the INS
// algorithm is the dual of this triangulation: two data objects are Voronoi
// neighbors exactly when they share a Delaunay edge.
//
// The implementation is the classic flip-based incremental algorithm with
// walk point location: each insertion locates the containing triangle by
// walking across edges, splits it (or the two triangles sharing an edge for
// on-edge insertions) and restores the empty-circumcircle property with
// Lawson flips. All geometric decisions go through the exact predicates in
// package geom, so degenerate inputs (collinear and cocircular points) are
// handled correctly. Vertex deletion retriangulates the star polygon of the
// removed vertex with Delaunay ear clipping. A whole point set (InsertAll,
// Restore in bulk.go) goes through the same insertion, its ids fixed first
// in input order and the vertices then linked along a Hilbert curve so the
// walks are short.
//
// The nearest vertex to a query point is found by the same kind of walk,
// over the Delaunay graph: greedy descent from a start near the query
// (nearest.go). A caller that knows a vertex near the query starts there;
// any other search starts from a flat entry grid over the bounds, one
// vertex per cell (grid.go) — jump-and-walk with the jump read off a table,
// which is the whole of the triangulation's spatial index.
//
// The face, vertex and grid tables live in copy-on-write pages (see
// paged.go), which gives the triangulation cheap version branching: Branch
// returns a new mutable version in O(n/pageSize) that shares every
// untouched page with the (now frozen) receiver, and a mutation repairs only
// the handful of pages holding the faces and cells it rewrites. The
// copy-on-write index snapshot store publishes one branch per data-update
// epoch. A branch shares nothing writable with its parent, so a branch that
// is abandoned halfway through a batch is simply dropped.
package delaunay

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// ErrOutOfBounds is returned by Insert for points outside the bounding box
// the triangulation was created with.
var ErrOutOfBounds = errors.New("delaunay: point outside triangulation bounds")

// ErrDuplicate is returned by Insert for a point that exactly coincides
// with an existing vertex. The existing vertex index is still returned.
var ErrDuplicate = errors.New("delaunay: duplicate point")

// ErrTooManyVertices is returned when an insertion, a pad or a restore
// would grow the vertex table past maxSlots.
var ErrTooManyVertices = errors.New("delaunay: vertex id space exhausted")

// maxSlots caps the vertex table (super corners, live, removed and padded
// slots alike). Vertex and face indices are int32, and v vertices span
// fewer than 2v faces whose dead slots are recycled before the face table
// grows, so half the int32 range keeps both index spaces from wrapping.
const maxSlots = math.MaxInt32 / 2

// ErrFrozen is returned by mutations on a version that has been branched
// from: its pages are shared with the branch, so a write in place would
// reach the branch and every reader of the version.
var ErrFrozen = errors.New("delaunay: triangulation frozen by Branch")

// noTri marks a missing triangle neighbor (boundary of the super-triangle).
// In the vertex-face table it additionally marks a removed vertex: a live
// vertex always has an incident live face.
const noTri = -1

// triangle is one face of the triangulation — 24 bytes, two per vertex.
// Vertices are indices into Triangulation.pts in counter-clockwise order;
// n[i] is the face across edge (v[i], v[(i+1)%3]) or noTri. A dead
// (recyclable) slot has v[0] < 0 and nothing else meaningful.
type triangle struct {
	v [3]int32
	n [3]int32
}

func (tr *triangle) alive() bool { return tr.v[0] >= 0 }

// Triangulation is an incremental Delaunay triangulation. The zero value is
// not usable; call New.
//
// Version state is split three ways. The face table (tris), the
// vertex-face hints (vface) and the entry grid (grid) are paged
// copy-on-write and diverge per version. The vertex coordinates (pts) are
// append-only and shared by every version: a version reads only the ids
// below its own length, so a branch appending past it disturbs nobody. The
// face free list (free) and the walk hint are writer state that each
// version owns (Branch copies them); readers never touch either. Nothing
// remembers which points are vertices: the face that holds a point has it
// as a corner if it is one (see Insert).
type Triangulation struct {
	pts    []geom.Point    // vertex 0..2 are the super-triangle corners
	tris   paged[triangle] // faces, including dead (recycled) slots
	vface  paged[int32]    // some live face incident to each vertex; noTri = removed
	grid   paged[int32]    // entry grid: a live vertex per cell (see grid.go)
	gbits  uint8           // the grid is 2^gbits cells on a side
	free   []int32         // writer-only: recycled face slots
	bounds geom.Rect       // accepted insertion region
	walk   int32           // writer-only: recently touched face, locate's start
	nLive  int             // number of live (non-deleted) input vertices
	own    *pageOwner      // this version's page-ownership token
	frozen atomic.Bool     // set by Branch; mutations are rejected
}

// New returns an empty triangulation accepting points inside bounds. The
// super-triangle is placed far enough outside bounds that it never disturbs
// Delaunay edges between real points.
func New(bounds geom.Rect) *Triangulation {
	span := bounds.Width() + bounds.Height()
	if span <= 0 {
		span = 1
	}
	m := 1e5*span + 1e7
	c := bounds.Center()
	t := &Triangulation{
		pts: []geom.Point{
			{X: c.X - 3*m, Y: c.Y - m},
			{X: c.X + 3*m, Y: c.Y - m},
			{X: c.X, Y: c.Y + 3*m},
		},
		bounds: bounds,
		own:    new(pageOwner),
	}
	t.tris.append(triangle{v: [3]int32{0, 1, 2}, n: [3]int32{noTri, noTri, noTri}}, t.own)
	for i := 0; i < 3; i++ {
		t.vface.append(0, t.own)
	}
	t.fillGrid()
	return t
}

// Branch returns a new mutable version of the triangulation and freezes the
// receiver: further reads of the receiver stay valid (and race-free against
// mutations of the branch), but its own Insert/Remove return ErrFrozen.
// The cost is three page-directory copies and the free list — O(n/pageSize),
// not O(n); the branch shares every page with the receiver until it writes
// it. The free list is copied because a branch pops face slots and pushes
// dead ones: sharing its backing array would let an abandoned branch
// overwrite entries the receiver still lists.
func (t *Triangulation) Branch() *Triangulation {
	t.frozen.Store(true)
	return &Triangulation{
		pts:    t.pts,
		tris:   t.tris.branch(),
		vface:  t.vface.branch(),
		grid:   t.grid.branch(),
		gbits:  t.gbits,
		free:   append([]int32(nil), t.free...),
		bounds: t.bounds,
		walk:   t.walk,
		nLive:  t.nLive,
		own:    new(pageOwner),
	}
}

// ShareStats reports the structural sharing of this version: the pages of
// its face, vertex-face and grid tables it copied or created since it was
// branched (or built), and their total page count. 1 - copied/total is the
// fraction of the triangulation it shares with the version it branched
// from.
func (t *Triangulation) ShareStats() (copied, total int) {
	return t.tris.copied + t.vface.copied + t.grid.copied, len(t.tris.dir) + len(t.vface.dir) + len(t.grid.dir)
}

// tri returns face f for reading. The pointer is stable on frozen versions;
// mutation paths must use triMut so interleaved page copies cannot strand a
// write.
func (t *Triangulation) tri(f int32) *triangle { return t.tris.at(int(f)) }

// triMut returns face f for writing, copying its page on first touch.
func (t *Triangulation) triMut(f int32) *triangle { return t.tris.mut(int(f), t.own) }

// numFaces returns the face-table length (live and dead slots).
func (t *Triangulation) numFaces() int { return t.tris.len() }

// vfaceAt returns the incident-face hint of internal vertex vi.
func (t *Triangulation) vfaceAt(vi int32) int32 { return *t.vface.at(int(vi)) }

// setVface updates the incident-face hint of internal vertex vi.
func (t *Triangulation) setVface(vi, f int32) { *t.vface.mut(int(vi), t.own) = f }

// Len returns the number of live input vertices in the triangulation.
func (t *Triangulation) Len() int { return t.nLive }

// Bounds returns the insertion region the triangulation was created with.
func (t *Triangulation) Bounds() geom.Rect { return t.bounds }

// Point returns the coordinates of vertex id (an index returned by Insert).
func (t *Triangulation) Point(id int) geom.Point { return t.pts[id+3] }

// isSuper reports whether the internal vertex index is a super-triangle corner.
func isSuper(v int32) bool { return v < 3 }

// Insert adds p and returns its vertex id. Inserting an exact duplicate
// returns the existing id together with ErrDuplicate; points outside the
// triangulation bounds return ErrOutOfBounds. One point location serves
// both: the face that holds p tells whether p is already a vertex, and is
// the face to split if it is not.
func (t *Triangulation) Insert(p geom.Point) (int, error) {
	if err := t.admit(1, p); err != nil {
		return -1, err
	}
	f, onEdge := t.locate(p)
	if vi := t.cornerAt(f, p); vi != noVertex {
		return int(vi) - 3, ErrDuplicate
	}
	vi := t.reserve(p)
	t.split(f, onEdge, vi)
	t.gridInsert(vi)
	return int(vi) - 3, nil
}

// noVertex is cornerAt's "p is not a vertex".
const noVertex = -1

// cornerAt returns the corner of face f that sits exactly at p, or
// noVertex. For f the face locate found for p this decides whether p is a
// live vertex: the faces of a triangulation meet a vertex only at their
// corners, so a closed face that holds a vertex has it as a corner, and a
// removed vertex is in no face. (The super-triangle corners are out of
// bounds, so an admitted point never matches one.)
func (t *Triangulation) cornerAt(f int32, p geom.Point) int32 {
	for _, v := range t.tri(f).v {
		if t.pts[v] == p {
			return v
		}
	}
	return noVertex
}

// admit checks everything that can refuse an insertion — a frozen version,
// no room for slots more vertex slots, a point outside the bounds — and
// touches nothing, so a refused call leaves the triangulation as it was.
func (t *Triangulation) admit(slots int, pts ...geom.Point) error {
	if t.frozen.Load() {
		return ErrFrozen
	}
	if slots > maxSlots-len(t.pts) {
		return fmt.Errorf("%w: %d slots in use, %d more asked for", ErrTooManyVertices, len(t.pts), slots)
	}
	for _, p := range pts {
		if err := t.inBounds(p); err != nil {
			return err
		}
	}
	return nil
}

func (t *Triangulation) inBounds(p geom.Point) error {
	if !t.bounds.Contains(p) {
		return fmt.Errorf("%w: %v not in %v", ErrOutOfBounds, p, t.bounds)
	}
	return nil
}

// reserve fixes the id of an admitted point the caller knows is not a
// vertex: it appends p as the next vertex slot without triangulating it. A
// reserved vertex reads as removed until split wires it in. Ids are
// therefore a function of the order of reserve calls alone — whatever order
// the vertices are linked in afterwards.
func (t *Triangulation) reserve(p geom.Point) int32 {
	vi := int32(len(t.pts))
	t.pts = append(t.pts, p)
	t.vface.append(noTri, t.own)
	t.nLive++
	return vi
}

// split triangulates reserved vertex vi inside face f, which locate found
// for its point: split f (or the two faces sharing edge onEdge, when the
// point lies on it) and flip until Delaunay again.
func (t *Triangulation) split(f int32, onEdge int, vi int32) {
	if onEdge >= 0 {
		t.insertOnEdge(f, onEdge, vi)
	} else {
		t.insertInFace(f, vi)
	}
}

// PadVertex appends one dead vertex slot without touching the
// triangulation: the slot's id is burned exactly as if the vertex had been
// inserted and removed, so the next Insert assigns the id after it.
// Restore uses it to reproduce an id sequence that contains removed
// vertices, which keeps ids assigned after recovery identical to the ids
// the original instance would have assigned.
func (t *Triangulation) PadVertex() (int, error) {
	if err := t.admit(1); err != nil {
		return -1, err
	}
	t.pad()
	return t.IDUpperBound() - 1, nil
}

// pad appends the dead slot of PadVertex; the caller has admitted it.
func (t *Triangulation) pad() {
	t.pts = append(t.pts, geom.Point{})
	t.vface.append(noTri, t.own)
}

// IDUpperBound returns the exclusive upper bound of assigned vertex ids:
// the id the next Insert (or PadVertex) will receive. Removed vertices
// keep their ids burned, so this is the value a restore path must pad up
// to — not the live-vertex count.
func (t *Triangulation) IDUpperBound() int { return len(t.pts) - 3 }

// locate walks from the hint triangle to the face containing p. It returns
// the face index and, when p lies exactly on one of its edges, that edge's
// index (otherwise -1). Only mutations locate, so the walk hint it starts
// from and leaves behind is the writer's own.
func (t *Triangulation) locate(p geom.Point) (face int32, onEdge int) {
	f := t.walk
	if f < 0 || int(f) >= t.numFaces() || !t.tri(f).alive() {
		f = t.anyAlive()
	}
	// The walk is guaranteed to terminate with exact predicates, but guard
	// against cycles anyway and fall back to a linear scan.
	for steps := 0; steps < 4*t.numFaces()+16; steps++ {
		tr := t.tri(f)
		on := -1
		moved := false
		for i := 0; i < 3; i++ {
			a, b := t.pts[tr.v[i]], t.pts[tr.v[(i+1)%3]]
			switch geom.Orient(a, b, p) {
			case geom.Clockwise:
				if tr.n[i] == noTri {
					// Outside the super-triangle: cannot happen for
					// in-bounds points, but be defensive.
					break
				}
				f = tr.n[i]
				moved = true
			case geom.Collinear:
				on = i
			}
			if moved {
				break
			}
		}
		if moved {
			continue
		}
		t.walk = f
		return f, on
	}
	// Fallback: exhaustive scan (unreachable in practice).
	for i := 0; i < t.numFaces(); i++ {
		tr := t.tri(int32(i))
		if !tr.alive() {
			continue
		}
		inside, on := true, -1
		for e := 0; e < 3; e++ {
			a, b := t.pts[tr.v[e]], t.pts[tr.v[(e+1)%3]]
			switch geom.Orient(a, b, p) {
			case geom.Clockwise:
				inside = false
			case geom.Collinear:
				on = e
			}
		}
		if inside {
			t.walk = int32(i)
			return int32(i), on
		}
	}
	panic("delaunay: locate failed; point outside super-triangle")
}

func (t *Triangulation) anyAlive() int32 {
	for i := t.numFaces() - 1; i >= 0; i-- {
		if t.tri(int32(i)).alive() {
			return int32(i)
		}
	}
	panic("delaunay: no live triangles")
}

// newTri allocates (or recycles) a face slot and refreshes the incident
// face hints of its three vertices.
func (t *Triangulation) newTri(v0, v1, v2, n0, n1, n2 int32) int32 {
	tr := triangle{v: [3]int32{v0, v1, v2}, n: [3]int32{n0, n1, n2}}
	var id int32
	if k := len(t.free); k > 0 {
		id = t.free[k-1]
		t.free = t.free[:k-1]
		*t.triMut(id) = tr
	} else {
		t.tris.append(tr, t.own)
		id = int32(t.tris.len() - 1)
	}
	t.setVface(v0, id)
	t.setVface(v1, id)
	t.setVface(v2, id)
	return id
}

func (t *Triangulation) killTri(id int32) {
	t.triMut(id).v[0] = noVertex
	t.free = append(t.free, id)
}

// replaceNeighbor updates face f (if any) so that its pointer to old points
// to new instead.
func (t *Triangulation) replaceNeighbor(f, old, new int32) {
	if f == noTri {
		return
	}
	tr := t.triMut(f)
	for i := 0; i < 3; i++ {
		if tr.n[i] == old {
			tr.n[i] = new
			return
		}
	}
	panic("delaunay: inconsistent adjacency")
}

// insertInFace splits face ti = (a,b,c) into (a,b,p), (b,c,p), (c,a,p).
func (t *Triangulation) insertInFace(ti, p int32) {
	tr := *t.tri(ti)
	a, b, c := tr.v[0], tr.v[1], tr.v[2]
	na, nb, nc := tr.n[0], tr.n[1], tr.n[2]
	t.killTri(ti)

	t0 := t.newTri(a, b, p, na, noTri, noTri)
	t1 := t.newTri(b, c, p, nb, noTri, noTri)
	t2 := t.newTri(c, a, p, nc, noTri, noTri)
	f0, f1, f2 := t.triMut(t0), t.triMut(t1), t.triMut(t2)
	f0.n[1], f0.n[2] = t1, t2
	f1.n[1], f1.n[2] = t2, t0
	f2.n[1], f2.n[2] = t0, t1
	t.replaceNeighbor(na, ti, t0)
	t.replaceNeighbor(nb, ti, t1)
	t.replaceNeighbor(nc, ti, t2)
	t.walk = t0

	t.legalize(t0, 0, p)
	t.legalize(t1, 0, p)
	t.legalize(t2, 0, p)
}

// insertOnEdge splits the two faces sharing edge e of face ti into four.
// If the edge is on the hull of the super-triangle (no twin), it splits
// only ti into two faces.
func (t *Triangulation) insertOnEdge(ti int32, e int, p int32) {
	tr := *t.tri(ti)
	// Relabel so the split edge is (u, w) with apex c.
	u, w, c := tr.v[e], tr.v[(e+1)%3], tr.v[(e+2)%3]
	nuw, nwc, ncu := tr.n[e], tr.n[(e+1)%3], tr.n[(e+2)%3]

	if nuw == noTri {
		t.killTri(ti)
		t0 := t.newTri(u, p, c, noTri, noTri, ncu)
		t1 := t.newTri(p, w, c, noTri, nwc, noTri)
		t.triMut(t0).n[1] = t1
		t.triMut(t1).n[2] = t0
		t.replaceNeighbor(nwc, ti, t1)
		t.replaceNeighbor(ncu, ti, t0)
		t.walk = t0
		t.legalize(t0, 2, p)
		t.legalize(t1, 1, p)
		return
	}

	// Twin face o shares directed edge (w, u); find its apex d.
	o := nuw
	otr := *t.tri(o)
	var j int
	for j = 0; j < 3; j++ {
		if otr.v[j] == w && otr.v[(j+1)%3] == u {
			break
		}
	}
	if j == 3 {
		panic("delaunay: twin edge not found")
	}
	d := otr.v[(j+2)%3]
	nud, ndw := otr.n[(j+1)%3], otr.n[(j+2)%3]

	// Four new faces around p: (u,p,c), (p,w,c), (w,p,d), (p,u,d).
	t0 := t.newTri(u, p, c, noTri, noTri, ncu)
	t1 := t.newTri(p, w, c, noTri, nwc, noTri)
	t2 := t.newTri(w, p, d, noTri, noTri, ndw)
	t3 := t.newTri(p, u, d, noTri, nud, noTri)
	f0, f1, f2, f3 := t.triMut(t0), t.triMut(t1), t.triMut(t2), t.triMut(t3)
	f0.n[0], f0.n[1] = t3, t1
	f1.n[0], f1.n[2] = t2, t0
	f2.n[0], f2.n[1] = t1, t3
	f3.n[0], f3.n[2] = t0, t2
	t.replaceNeighbor(ncu, ti, t0)
	t.replaceNeighbor(nwc, ti, t1)
	t.replaceNeighbor(ndw, o, t2)
	t.replaceNeighbor(nud, o, t3)
	// The old faces die only now. Killed first, their slots would be
	// recycled into t0 and t1, and an outer face that borders both of them
	// (u or w has only three faces) could not tell its pointer to o from
	// the one just repointed to o's recycled slot.
	t.killTri(ti)
	t.killTri(o)
	t.walk = t0

	t.legalize(t0, 2, p)
	t.legalize(t1, 1, p)
	t.legalize(t2, 2, p)
	t.legalize(t3, 1, p)
}

// legalize checks the edge e of face f against the Delaunay criterion with
// respect to the newly inserted vertex p (which is a vertex of f not on
// edge e) and flips recursively while violated.
func (t *Triangulation) legalize(f int32, e int, p int32) {
	tr := *t.tri(f)
	o := tr.n[e]
	if o == noTri {
		return
	}
	a, b := tr.v[e], tr.v[(e+1)%3]
	otr := *t.tri(o)
	var j int
	for j = 0; j < 3; j++ {
		if otr.v[j] == b && otr.v[(j+1)%3] == a {
			break
		}
	}
	if j == 3 {
		panic("delaunay: twin edge not found in legalize")
	}
	d := otr.v[(j+2)%3]

	if !t.shouldFlip(tr.v[0], tr.v[1], tr.v[2], d) {
		return
	}

	// Flip edge (a,b) shared by f=(a,b,c) and o=(b,a,d) into (c,d).
	c := tr.v[(e+2)%3]
	nbc, nca := tr.n[(e+1)%3], tr.n[(e+2)%3]
	nad, ndb := otr.n[(j+1)%3], otr.n[(j+2)%3]

	// Reuse slots: f becomes (a,d,c), o becomes (d,b,c).
	*t.triMut(f) = triangle{v: [3]int32{a, d, c}, n: [3]int32{nad, o, nca}}
	*t.triMut(o) = triangle{v: [3]int32{d, b, c}, n: [3]int32{ndb, nbc, f}}
	t.setVface(a, f)
	t.setVface(d, f)
	t.setVface(c, f)
	t.setVface(b, o)
	t.replaceNeighbor(nbc, f, o)
	t.replaceNeighbor(nad, o, f)

	// The new edges opposite p must be re-checked. p is c in both faces.
	t.legalize(f, 0, p)
	t.legalize(o, 0, p)
}

// shouldFlip reports whether vertex d violates the (constrained) Delaunay
// criterion for the CCW face (a,b,c). Super-triangle corners are treated as
// points at infinity: an edge between two real vertices is never flipped
// away in favor of a super vertex, and edges incident to super vertices are
// flipped whenever the opposing real vertex "sees" the edge.
func (t *Triangulation) shouldFlip(a, b, c, d int32) bool {
	// No special case when a super corner is involved: the corners are far
	// enough away that the float evaluation of the predicate gives the
	// at-infinity answer.
	return geom.InCircle(t.pts[a], t.pts[b], t.pts[c], t.pts[d]) > 0
}
