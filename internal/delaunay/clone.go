package delaunay

import "repro/internal/geom"

// Clone returns a deep copy of the triangulation that shares no mutable
// state with the original; site ids are preserved. It is the fallback
// publication path where the structural sharing of Branch is unsafe — in
// particular after an aborted mutation batch may have left the shared
// writer state (the face free list, which the abandoned branch popped from
// and pushed onto in place) out of sync — so it rebuilds that state from
// the face table instead of copying it.
func (t *Triangulation) Clone() *Triangulation {
	own := new(pageOwner)
	c := &Triangulation{
		pts:    append([]geom.Point(nil), t.pts...),
		tris:   t.tris.deepCopy(own),
		vface:  t.vface.deepCopy(own),
		grid:   t.grid.deepCopy(own),
		gbits:  t.gbits,
		bounds: t.bounds,
		walk:   t.walk,
		nLive:  t.nLive,
		own:    own,
	}
	for f := 0; f < c.numFaces(); f++ {
		if !c.tri(int32(f)).alive() {
			c.free = append(c.free, int32(f))
		}
	}
	return c
}
