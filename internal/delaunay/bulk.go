package delaunay

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// InsertAll inserts every point and returns the assigned vertex ids,
// parallel to pts. Ids are assigned in input order and exact duplicates map
// to the first occurrence's id, exactly as a loop of Insert would assign
// them; the new vertices are then linked in Hilbert-curve order, so each
// point-location walk starts next to its target instead of crossing the
// O(√n) faces between two unrelated points. A call that fails — an
// out-of-bounds point, no room for len(pts) more vertices — has changed
// nothing.
func (t *Triangulation) InsertAll(pts []geom.Point) ([]int, error) {
	if err := t.admit(len(pts), pts...); err != nil {
		return nil, err
	}
	ids := make([]int, len(pts))
	order := make([]uint64, 0, len(pts))
	for i, p := range pts {
		vi, fresh := t.reserve(p)
		ids[i] = int(vi) - 3
		if fresh {
			order = append(order, t.linkKey(vi))
		}
	}
	t.linkAll(order)
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
// InsertAll with gaps — same reserve pass, same Hilbert-ordered linking —
// and everything is checked while the slots are reserved, before any
// vertex is linked. Its errors start "restore" and leave the package prefix
// to the caller: prefixed "vortree: " they are the texts vortree.Restore
// has always returned.
func Restore(bounds geom.Rect, vs []Vertex, nextID int) (*Triangulation, error) {
	t := New(bounds)
	if err := t.admit(nextID); err != nil {
		return nil, fmt.Errorf("restore: nextID %d: %w", nextID, err)
	}
	order := make([]uint64, 0, len(vs))
	for i, v := range vs {
		if v.ID >= nextID {
			return nil, fmt.Errorf("restore: %d objects with ids >= nextID %d", len(vs)-i, nextID)
		}
		if err := t.inBounds(v.P); err != nil {
			return nil, fmt.Errorf("restore id %d: %w", v.ID, err)
		}
		for t.IDUpperBound() < v.ID {
			t.pad()
		}
		// A point already reserved resolves to the earlier id, and an id
		// not above its predecessor finds its slot taken: either way the
		// saved sequence cannot be reproduced.
		vi, _ := t.reserve(v.P)
		if got := int(vi) - 3; got != v.ID {
			return nil, fmt.Errorf("restore assigned id %d, want %d (objs not ascending?)", got, v.ID)
		}
		order = append(order, t.linkKey(vi))
	}
	for t.IDUpperBound() < nextID {
		t.pad()
	}
	t.linkAll(order)
	return t, nil
}

// linkKey packs the position of reserved vertex vi along the Hilbert curve
// over the triangulation bounds (16 bits per axis) above its slot, so that
// sorting the words orders the vertices along the curve, ties by slot.
func (t *Triangulation) linkKey(vi int32) uint64 {
	const cells = 1<<16 - 1
	p, b := t.pts[vi], t.bounds
	var x, y uint32
	if w := b.Width(); w > 0 {
		x = uint32((p.X - b.Min.X) / w * cells)
	}
	if h := b.Height(); h > 0 {
		y = uint32((p.Y - b.Min.Y) / h * cells)
	}
	return uint64(hilbert16(x, y))<<32 | uint64(vi)
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

// linkAll links the reserved vertices named by order (linkKey words) along
// the Hilbert curve. Each walk starts at the face the previous link left
// behind, a few faces from its target.
func (t *Triangulation) linkAll(order []uint64) {
	slices.Sort(order)
	for _, k := range order {
		t.link(int32(uint32(k)))
	}
}
