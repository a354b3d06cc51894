package delaunay

import "repro/internal/geom"

// Nearest returns the id of the live vertex closest to p, or -1 when the
// triangulation is empty: NearestFrom with no start of its own.
func (t *Triangulation) Nearest(p geom.Point) int {
	var sc RingScratch
	id, _, _ := t.NearestFrom(p, -1, 0, &sc)
	return id
}

// NearestFrom returns the id of the live vertex closest to p, or -1 when
// the triangulation is empty, and what finding it cost: the grid cells it
// read and the distances it evaluated. It is greedy descent on the Delaunay
// graph, which ends at the nearest vertex because the Delaunay
// triangulation contains the nearest-neighbor graph. The descent starts at
// vertex hint when that is live, and gives up after maxHops steps: a hint
// a step or two from p costs less than any index, one across the data
// space costs O(√n) steps. Without a live hint, or once its walk gave up,
// it starts at the grid entry of p's cell — p clamped to the bounds — a few
// steps from p, and runs to the end. The ring buffers are the caller's, so
// a search allocates nothing.
func (t *Triangulation) NearestFrom(p geom.Point, hint, maxHops int, sc *RingScratch) (id, cells, dists int) {
	if t.Contains(hint) {
		v, n, ok := t.descend(p, int32(hint+3), maxHops, sc)
		if ok {
			return int(v) - 3, 0, n
		}
		dists = n
	}
	if t.nLive == 0 {
		return -1, 0, dists
	}
	start := t.entry(t.cellOf(p))
	if start < 3 || t.vfaceAt(start) == noTri {
		panic("delaunay: entry grid holds no live vertex")
	}
	v, n, _ := t.descend(p, start, -1, sc)
	return int(v) - 3, 1, dists + n
}

// descend walks from live vertex v to the neighbor nearest to p while one
// is strictly nearer, at most maxHops times (no limit when negative). It
// returns where it stopped, the distances it evaluated — v's and one per
// neighbor looked at — and whether it stopped at a local minimum, which is
// the nearest vertex.
func (t *Triangulation) descend(p geom.Point, v int32, maxHops int, sc *RingScratch) (int32, int, bool) {
	best, dists := p.Dist2(t.pts[v]), 1
	for hop := 0; maxHops < 0 || hop <= maxHops; hop++ {
		_, ring := t.ringAround(v, sc)
		next := v
		for _, u := range ring {
			if isSuper(u) {
				continue
			}
			dists++
			if d := p.Dist2(t.pts[u]); d < best {
				best, next = d, u
			}
		}
		if next == v {
			return v, dists, true
		}
		v = next
	}
	return v, dists, false
}
