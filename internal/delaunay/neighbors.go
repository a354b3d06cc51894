package delaunay

import (
	"fmt"

	"repro/internal/geom"
)

// ErrNotFound is returned for operations on vertex ids that were never
// inserted or were already removed.
var ErrNotFound = fmt.Errorf("delaunay: vertex not found")

// faceOf returns a live face incident to internal vertex vi. The hint
// table is maintained eagerly by every mutation, so the scan fallback is
// defensive; it deliberately does not write the repaired hint back, keeping
// this callable on frozen versions shared across goroutines.
func (t *Triangulation) faceOf(vi int32) int32 {
	f := t.vfaceAt(vi)
	if f != noTri && t.tri(f).alive() && t.hasVertex(f, vi) {
		return f
	}
	if f == noTri {
		return noTri // removed vertex: no incident faces by definition
	}
	for i := 0; i < t.numFaces(); i++ {
		if t.tri(int32(i)).alive() && t.hasVertex(int32(i), vi) {
			return int32(i)
		}
	}
	return noTri
}

func (t *Triangulation) hasVertex(f, vi int32) bool {
	tr := t.tri(f)
	return tr.v[0] == vi || tr.v[1] == vi || tr.v[2] == vi
}

// vertexPos returns the index (0..2) of vi inside face f.
func (t *Triangulation) vertexPos(f, vi int32) int {
	tr := t.tri(f)
	for i := 0; i < 3; i++ {
		if tr.v[i] == vi {
			return i
		}
	}
	panic("delaunay: vertex not in face")
}

// RingScratch is reusable buffer memory for AppendNeighbors. The zero
// value is ready to use; one scratch serves any number of sequential calls
// (it must not be shared across goroutines).
type RingScratch struct {
	faces, ring []int32
}

// ringAround returns the faces incident to vi and the link (star boundary)
// vertices, both in counter-clockwise order around vi, appended onto the
// (reset) scratch buffers. Every real vertex is interior to the
// super-triangle, so the ring always closes.
func (t *Triangulation) ringAround(vi int32, sc *RingScratch) (faces, ring []int32) {
	faces, ring = sc.faces[:0], sc.ring[:0]
	defer func() { sc.faces, sc.ring = faces, ring }()
	start := t.faceOf(vi)
	if start == noTri {
		return nil, nil
	}
	f := start
	for {
		i := t.vertexPos(f, vi)
		tr := t.tri(f)
		faces = append(faces, f)
		ring = append(ring, tr.v[(i+1)%3])
		// Rotate counter-clockwise: cross the edge (vi, v[(i+1)%3])... the
		// next CCW face around vi is across edge (v[(i+2)%3], vi), i.e.
		// edge index (i+2)%3.
		f = tr.n[(i+2)%3]
		if f == noTri {
			panic("delaunay: open star around interior vertex")
		}
		if f == start {
			break
		}
		if len(faces) > t.numFaces()+3 {
			panic("delaunay: star walk did not terminate")
		}
	}
	return faces, ring
}

// Neighbors returns the ids of the live data vertices sharing a Delaunay
// edge with vertex id — exactly the Voronoi neighbor set N_O(p_id) of
// Definition 3 in the paper. The result is in counter-clockwise order;
// super-triangle corners are omitted. It returns ErrNotFound for unknown or
// deleted ids.
func (t *Triangulation) Neighbors(id int) ([]int, error) {
	var sc RingScratch
	return t.AppendNeighbors(id, nil, &sc)
}

// AppendNeighbors is Neighbors appending onto dst, with ring-walk buffers
// supplied by the caller — the allocation-free form the serving hot path
// uses. dst may be nil; the scratch must not be shared across goroutines.
func (t *Triangulation) AppendNeighbors(id int, dst []int, sc *RingScratch) ([]int, error) {
	if !t.Contains(id) {
		return dst, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	_, ring := t.ringAround(int32(id+3), sc)
	for _, v := range ring {
		if !isSuper(v) {
			dst = append(dst, int(v)-3)
		}
	}
	return dst, nil
}

// Contains reports whether vertex id is live in the triangulation. The
// bound is written so that no id overflows it: id+3 wraps for the three
// largest ints and would name a super-triangle corner.
func (t *Triangulation) Contains(id int) bool {
	return id >= 0 && id < len(t.pts)-3 && t.vfaceAt(int32(id+3)) != noTri
}

// VertexIDs returns the ids of all live vertices in insertion order.
func (t *Triangulation) VertexIDs() []int {
	ids := make([]int, 0, t.nLive)
	for i := 0; i < len(t.pts)-3; i++ {
		if t.vfaceAt(int32(i+3)) != noTri {
			ids = append(ids, i)
		}
	}
	return ids
}

// Triangles returns the faces of the Delaunay triangulation whose three
// corners are all real data vertices, as triples of vertex ids in
// counter-clockwise order.
func (t *Triangulation) Triangles() [][3]int {
	var out [][3]int
	for i := 0; i < t.numFaces(); i++ {
		tr := t.tri(int32(i))
		if !tr.alive() || isSuper(tr.v[0]) || isSuper(tr.v[1]) || isSuper(tr.v[2]) {
			continue
		}
		out = append(out, [3]int{int(tr.v[0]) - 3, int(tr.v[1]) - 3, int(tr.v[2]) - 3})
	}
	return out
}

// Remove deletes vertex id from the triangulation and restores the Delaunay
// property by retriangulating the star polygon of the removed vertex with
// Delaunay ear clipping; the grid cells it held go to its neighbors.
func (t *Triangulation) Remove(id int) error {
	if t.frozen.Load() {
		return ErrFrozen
	}
	if !t.Contains(id) {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	vi := int32(id + 3)
	var sc RingScratch
	faces, ring := t.ringAround(vi, &sc)
	if len(faces) == 0 {
		return fmt.Errorf("%w: id %d has no incident faces", ErrNotFound, id)
	}

	// Map every directed boundary edge of the hole to the face outside it.
	// For face k around vi with vi at position i, the outer edge is
	// (v[(i+1)%3], v[(i+2)%3]) with neighbor n[(i+1)%3].
	type edge struct{ a, b int32 }
	outer := make(map[edge]int32, len(faces))
	for _, f := range faces {
		i := t.vertexPos(f, vi)
		tr := t.tri(f)
		a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
		outer[edge{a, b}] = tr.n[(i+1)%3]
	}
	for _, f := range faces {
		t.killTri(f)
	}

	// halfEdges maps directed edges of freshly created faces so twins can
	// be linked as they appear.
	halfEdges := make(map[edge]int32, 2*len(ring))
	link := func(f int32, ei int, a, b int32) {
		if of, ok := outer[edge{a, b}]; ok {
			t.triMut(f).n[ei] = of
			if of != noTri {
				// The outer face's pointer still references a killed face;
				// repoint it at f.
				otr := t.triMut(of)
				for k := 0; k < 3; k++ {
					if otr.v[k] == b && otr.v[(k+1)%3] == a {
						otr.n[k] = f
						break
					}
				}
			}
			return
		}
		if tf, ok := halfEdges[edge{b, a}]; ok {
			t.triMut(f).n[ei] = tf
			ttr := t.triMut(tf)
			for k := 0; k < 3; k++ {
				if ttr.v[k] == b && ttr.v[(k+1)%3] == a {
					ttr.n[k] = f
					break
				}
			}
			return
		}
		halfEdges[edge{a, b}] = f
	}

	emit := func(a, b, c int32) {
		f := t.newTri(a, b, c, noTri, noTri, noTri)
		link(f, 0, a, b)
		link(f, 1, b, c)
		link(f, 2, c, a)
		t.walk = f
	}

	// Delaunay ear clipping of the (star-shaped) hole polygon.
	poly := append([]int32(nil), ring...)
	for len(poly) > 3 {
		n := len(poly)
		best := -1
		for i := 0; i < n; i++ {
			a, b, c := poly[(i+n-1)%n], poly[i], poly[(i+1)%n]
			if geom.Orient(t.pts[a], t.pts[b], t.pts[c]) != geom.CounterClockwise {
				continue // reflex or flat corner: not an ear
			}
			ok := true
			for j := 0; j < n; j++ {
				d := poly[j]
				if d == a || d == b || d == c {
					continue
				}
				if geom.InCircle(t.pts[a], t.pts[b], t.pts[c], t.pts[d]) > 0 {
					ok = false
					break
				}
			}
			if ok {
				best = i
				break
			}
		}
		if best == -1 {
			// Cocircular fallback: take any strictly convex ear.
			for i := 0; i < n; i++ {
				a, b, c := poly[(i+n-1)%n], poly[i], poly[(i+1)%n]
				if geom.Orient(t.pts[a], t.pts[b], t.pts[c]) == geom.CounterClockwise {
					best = i
					break
				}
			}
		}
		if best == -1 {
			panic("delaunay: no ear found while removing vertex")
		}
		n0 := len(poly)
		a, b, c := poly[(best+n0-1)%n0], poly[best], poly[(best+1)%n0]
		emit(a, b, c)
		// Record the new diagonal so subsequent faces can link to it.
		poly = append(poly[:best], poly[best+1:]...)
	}
	emit(poly[0], poly[1], poly[2])

	t.nLive--
	t.setVface(vi, noTri)
	t.gridRemove(vi, ring)
	return nil
}
