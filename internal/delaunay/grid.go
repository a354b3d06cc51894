package delaunay

import "repro/internal/geom"

// The entry grid is where a search without a start of its own begins its
// walk: 2^gbits × 2^gbits cells over the bounds, row-major, one int32
// vertex each — about two vertices per cell, 2.6 bytes per vertex at 100k,
// and no pointer the collector has to trace beyond the page directory.
// Jump-and-walk (Mücke, Saias and Zhu) jumps to the nearest of a random
// sample; the grid jumps to a vertex in, or next to, the query's own cell.
//
// Every cell holds a live vertex once the triangulation has one, and the
// cells holding any vertex v are either none or a 4-connected region that
// contains v's own cell, the cell of its point. Each mutation keeps that
// true with local work, which is what lets Remove find every cell holding
// the vertex it removes by a flood from one cell:
//   - a build fills every vertex's own cell and spreads each entry to the
//     empty cells around, breadth first (fillGrid);
//   - Insert takes its own cell unless a vertex inside the cell holds it,
//     and with it the copies of the old entry behind the cell (gridInsert);
//   - Remove hands the cells it held to its neighbours (gridRemove).
//
// An entry is never dead, only possibly far from its cell, which lengthens
// the walk and never changes its answer. The grid is paged like the faces,
// so a frozen version's readers never see the writer's cells, and a
// mutation copies only the pages of the cells it rewrites.

// maxGridBits caps the grid at 2^24 cells, 64 MB.
const maxGridBits = 12

// gridBits returns the grid size for n vertices: the least b with at most
// two vertices per cell.
func gridBits(n int) uint8 {
	b := uint8(0)
	for 2<<(2*b) < n && b < maxGridBits {
		b++
	}
	return b
}

// cells returns the number of grid cells.
func (t *Triangulation) cells() int { return 1 << (2 * t.gbits) }

// cellOf returns the grid cell of p, clamped to the bounds.
func (t *Triangulation) cellOf(p geom.Point) int {
	side := 1 << t.gbits
	x := axisCell(p.X, t.bounds.Min.X, t.bounds.Width(), side)
	y := axisCell(p.Y, t.bounds.Min.Y, t.bounds.Height(), side)
	return y<<t.gbits | x
}

// axisCell returns which of side equal cells of [lo, lo+w] holds v, the
// first or last one when v lies before or past them.
func axisCell(v, lo, w float64, side int) int {
	f := (v - lo) / w * float64(side)
	switch {
	case !(f > 0): // NaN too: a zero-width axis has one cell's worth of points
		return 0
	case f >= float64(side):
		return side - 1
	}
	return int(f)
}

func (t *Triangulation) entry(c int) int32 { return *t.grid.at(c) }

func (t *Triangulation) setEntry(c int, v int32) { *t.grid.mut(c, t.own) = v }

// fillGrid rebuilds the grid, sized for the live vertices: each writes its
// own cell, and spread hands every empty cell the entry of a nearest filled
// one. The old pages stay with the versions that share them.
func (t *Triangulation) fillGrid() {
	t.gbits = gridBits(t.nLive)
	t.grid = paged[int32]{}
	for range t.cells() {
		t.grid.append(noVertex, t.own)
	}
	var filled []int
	for vi := int32(3); int(vi) < len(t.pts); vi++ {
		if t.vfaceAt(vi) == noTri {
			continue
		}
		c := t.cellOf(t.pts[vi])
		if t.entry(c) == noVertex {
			filled = append(filled, c)
		}
		t.setEntry(c, vi)
	}
	t.spread(filled, noVertex, -1)
}

// around returns the 4-neighbours of cell c, -1 for each past the edge.
func (t *Triangulation) around(c int) [4]int {
	side := 1 << t.gbits
	x, y := c&(side-1), c>>t.gbits
	nb := [4]int{-1, -1, -1, -1}
	if x > 0 {
		nb[0] = c - 1
	}
	if x < side-1 {
		nb[1] = c + 1
	}
	if y > 0 {
		nb[2] = c - side
	}
	if y < side-1 {
		nb[3] = c + side
	}
	return nb
}

// spread hands the entry of every queued cell to each 4-neighbour holding
// hole, and on from there, breadth first — to all but cell keep — and
// returns the queue grown by the cells it filled. A cell it fills copies a
// neighbour, so the cells holding one vertex stay connected.
func (t *Triangulation) spread(queue []int, hole int32, keep int) []int {
	for i := 0; i < len(queue); i++ {
		v := t.entry(queue[i])
		for _, n := range t.around(queue[i]) {
			if n >= 0 && n != keep && t.entry(n) == hole {
				t.setEntry(n, v)
				queue = append(queue, n)
			}
		}
	}
	return queue
}

// gridInsert gives the new vertex vi its own cell. A vertex inside the cell
// keeps it; an entry copied from another cell gives way, and so do its
// copies reachable from here without crossing its own cell, which leaves
// the rest of them connected to that cell. The first vertex, and a vertex
// past four per cell, rebuild the grid instead: an index grown from empty
// walks about as far as a built one.
func (t *Triangulation) gridInsert(vi int32) {
	if t.nLive == 1 || t.nLive > 4*t.cells() && t.gbits < maxGridBits {
		t.fillGrid()
		return
	}
	c := t.cellOf(t.pts[vi])
	u := t.entry(c)
	own := t.cellOf(t.pts[u])
	if own == c {
		return
	}
	t.setEntry(c, vi)
	t.spread([]int{c}, u, own)
}

// vacant marks the cells gridRemove is refilling.
const vacant = -2

// gridRemove re-points the cells that held vi, which Remove has just taken
// out; ring is its link from before. They are vi's own cell and the copies
// connected to it. A neighbour whose own cell is among them holds no cell
// (its own would be one), so it may take its own; spread fills the rest
// from those and from the cells around the region.
func (t *Triangulation) gridRemove(vi int32, ring []int32) {
	c := t.cellOf(t.pts[vi])
	if t.nLive == 0 || t.entry(c) != vi {
		return
	}
	t.setEntry(c, vacant)
	region := t.spread([]int{c}, vi, -1) // spreads vacant: marks the region
	var queue []int
	for _, u := range ring {
		if !isSuper(u) {
			if cu := t.cellOf(t.pts[u]); t.entry(cu) == vacant {
				t.setEntry(cu, u)
				queue = append(queue, cu)
			}
		}
	}
	for _, r := range region {
		for _, n := range t.around(r) {
			if n >= 0 && t.entry(n) != vacant {
				queue = append(queue, n)
			}
		}
	}
	t.spread(queue, vacant, -1)
}
