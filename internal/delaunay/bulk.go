package delaunay

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
)

// InsertAll inserts every point and returns the assigned vertex ids,
// parallel to pts. Ids are assigned in input order and exact duplicates map
// to the first occurrence's id (or to the live vertex already there),
// exactly as a loop of Insert would assign them; the new vertices are then
// linked in Hilbert-curve order, so each point-location walk starts next to
// its target instead of crossing the O(√n) faces between two unrelated
// points, and the entry grid is filled afresh for the new size. A call that
// fails — an out-of-bounds point, no room for len(pts) more vertices — has
// changed nothing.
func (t *Triangulation) InsertAll(pts []geom.Point) ([]int, error) {
	if err := t.admit(len(pts), pts...); err != nil {
		return nil, err
	}
	order := t.curveOrder(len(pts), func(i int) geom.Point { return pts[i] })
	// Who is new is decided along the curve, before anything is reserved:
	// a point repeated in the batch follows its first occurrence in order,
	// and a point that is a live vertex is a corner of the face it is
	// located in — located by a short walk, since the previous one ended
	// next door. ids[i] holds the verdict until the ids are assigned.
	const fresh = -1 // below it: -2-j, the id input j gets
	ids := make([]int, len(pts))
	links := order[:0]
	first := 0
	for j, k := range order {
		i := int(uint32(k))
		if j > 0 && pts[i] == pts[first] {
			ids[i] = -2 - first
			continue
		}
		first = i
		f, _ := t.locate(pts[i])
		if vi := t.cornerAt(f, pts[i]); vi != noVertex {
			ids[i] = int(vi) - 3
			continue
		}
		ids[i] = fresh
		links = append(links, k)
	}
	t.pts = slices.Grow(t.pts, len(links)) // one growth, not one per doubling
	for i, id := range ids {
		if id == fresh {
			ids[i] = int(t.reserve(pts[i])) - 3
		} else if id < fresh {
			ids[i] = ids[-2-id] // an earlier input: its id is final
		}
	}
	for _, k := range links {
		t.link(int32(ids[uint32(k)] + 3))
	}
	t.fillGrid()
	return ids, nil
}

// Vertex is one live vertex of a saved triangulation: its id and position.
type Vertex struct {
	ID int
	P  geom.Point
}

// Restore rebuilds a triangulation whose live vertices AND id sequence are
// those of a saved one: vs strictly ascending by id, and nextID the id the
// next Insert receives. The ids in between were assigned and removed before
// the save; they are padded, as PadVertex does, so they stay burned. It is
// InsertAll with gaps — same curve order, same Hilbert-ordered linking —
// and everything is checked before any slot is reserved. Its errors start
// "restore" and leave the package prefix to the caller: prefixed
// "vortree: " they are the texts vortree.Restore has always returned.
func Restore(bounds geom.Rect, vs []Vertex, nextID int) (*Triangulation, error) {
	t := New(bounds)
	if err := t.admit(nextID); err != nil {
		return nil, fmt.Errorf("restore: nextID %d: %w", nextID, err)
	}
	next := 0
	for i, v := range vs {
		if v.ID >= nextID {
			return nil, fmt.Errorf("restore: %d objects with ids >= nextID %d", len(vs)-i, nextID)
		}
		if err := t.inBounds(v.P); err != nil {
			return nil, fmt.Errorf("restore id %d: %w", v.ID, err)
		}
		if v.ID < next {
			return nil, fmt.Errorf("restore assigned id %d, want %d (objs not ascending?)", next, v.ID)
		}
		next = v.ID + 1
	}
	// A repeated point would resolve to the earlier id, so the saved
	// sequence cannot be reproduced: same refusal, naming that id.
	order := t.curveOrder(len(vs), func(i int) geom.Point { return vs[i].P })
	for j := 1; j < len(order); j++ {
		a, b := vs[uint32(order[j-1])], vs[uint32(order[j])]
		if a.P == b.P {
			return nil, fmt.Errorf("restore assigned id %d, want %d (objs not ascending?)", a.ID, b.ID)
		}
	}
	t.pts = slices.Grow(t.pts, nextID) // every slot up to nextID, padded or live
	for _, v := range vs {
		for t.IDUpperBound() < v.ID {
			t.pad()
		}
		t.reserve(v.P)
	}
	for t.IDUpperBound() < nextID {
		t.pad()
	}
	for _, k := range order {
		t.link(int32(vs[uint32(k)].ID + 3))
	}
	t.fillGrid()
	return t, nil
}

// curveOrder returns one link key per point 0..n-1 (at gives its position,
// inside the bounds), sorted along the Hilbert curve over the triangulation
// bounds: the cell (16 bits per axis) above the point's number. Points of
// one cell are ordered by position, then by number, so the occurrences of a
// repeated point are adjacent, first occurrence first — the one place
// duplicates inside a batch are looked for.
func (t *Triangulation) curveOrder(n int, at func(int) geom.Point) []uint64 {
	const cells = 1<<16 - 1
	origin, w, h := t.bounds.Min, t.bounds.Width(), t.bounds.Height()
	order := make([]uint64, n)
	for i := range order {
		p := at(i)
		var x, y uint32
		if w > 0 {
			x = uint32((p.X - origin.X) / w * cells)
		}
		if h > 0 {
			y = uint32((p.Y - origin.Y) / h * cells)
		}
		order[i] = uint64(hilbert16(x, y))<<32 | uint64(i)
	}
	slices.Sort(order)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && order[hi]>>32 == order[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(ka, kb uint64) int {
				p, q := at(int(uint32(ka))), at(int(uint32(kb)))
				if c := cmp.Compare(p.X, q.X); c != 0 {
					return c
				}
				if c := cmp.Compare(p.Y, q.Y); c != 0 {
					return c
				}
				return cmp.Compare(ka, kb)
			})
		}
		lo = hi
	}
	return order
}

// hilbert16 returns the distance of cell (x, y), 0 ≤ x, y < 2^16, along the
// order-16 Hilbert curve: the classic quadrant-by-quadrant walk from the
// top bit down, rotating the lower bits into each quadrant's frame.
func hilbert16(x, y uint32) uint32 {
	var d uint32
	for s := uint32(1 << 15); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		if ry == 0 {
			if rx == 1 {
				x, y = ^x, ^y
			}
			x, y = y, x
		}
	}
	return d
}

// link triangulates reserved vertex vi. In a bulk pass the walk to the face
// holding it starts at the face the previous link left behind, a few faces
// away along the curve.
func (t *Triangulation) link(vi int32) {
	f, onEdge := t.locate(t.pts[vi])
	t.split(f, onEdge, vi)
}
