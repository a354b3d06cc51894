package voronoi

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// INS returns the influential neighbor set I(O') of Definition 4: the union
// of the order-1 Voronoi neighbor sets of the sites in knn, minus knn
// itself. The result is sorted by id. It is the reference construction —
// the serving path obtains I(R) as a by-product of computing R (see
// vortree.Index.AppendPrefetch) — and the oracle its tests compare against.
func (d *Diagram) INS(knn []int) ([]int, error) {
	inKNN := make(map[int]bool, len(knn))
	for _, id := range knn {
		inKNN[id] = true
	}
	seen := make(map[int]bool)
	var out []int
	for _, id := range knn {
		nb, err := d.tri.Neighbors(id)
		if err != nil {
			return nil, fmt.Errorf("voronoi: INS of %v: %w", knn, err)
		}
		for _, u := range nb {
			if !inKNN[u] && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	sort.Ints(out)
	return out, nil
}

// taggedEdge records which bisector produced a polygon edge during tagged
// clipping: the pair (knnID, otherID), or tag == -1 for a bounding-box edge.
type taggedEdge struct {
	knnID, otherID int
}

var boundaryEdge = taggedEdge{-1, -1}

// taggedPolygon is a convex polygon where edge i runs from vertex i to
// vertex i+1 and carries the tag of the half-plane that generated it.
type taggedPolygon struct {
	v    []geom.Point
	tags []taggedEdge
}

func newTaggedRect(r geom.Rect) taggedPolygon {
	poly := geom.RectPolygon(r)
	tags := make([]taggedEdge, len(poly))
	for i := range tags {
		tags[i] = boundaryEdge
	}
	return taggedPolygon{v: poly, tags: tags}
}

// clip intersects the polygon with half-plane h; every edge created by the
// clip line is tagged with tag. Same Sutherland–Hodgman structure as
// geom.Polygon.ClipHalfPlane, with tag bookkeeping.
func (tp taggedPolygon) clip(h geom.HalfPlane, tag taggedEdge) taggedPolygon {
	n := len(tp.v)
	if n == 0 {
		return tp
	}
	val := func(p geom.Point) float64 { return h.N.Dot(p) - h.C }
	var outV []geom.Point
	var outT []taggedEdge
	for i := 0; i < n; i++ {
		cur, nxt := tp.v[i], tp.v[(i+1)%n]
		curVal, nxtVal := val(cur), val(nxt)
		edgeTag := tp.tags[i]
		if curVal <= 0 { // cur inside
			outV = append(outV, cur)
			if nxtVal > 0 { // leaving: cut edge keeps its tag, then new edge
				t := curVal / (curVal - nxtVal)
				outV = append(outV, geom.Lerp(cur, nxt, t))
				outT = append(outT, edgeTag, tag)
			} else {
				outT = append(outT, edgeTag)
			}
		} else if nxtVal <= 0 { // entering
			t := curVal / (curVal - nxtVal)
			outV = append(outV, geom.Lerp(cur, nxt, t))
			outT = append(outT, edgeTag)
		}
	}
	return taggedPolygon{v: outV, tags: outT}
}

// dedup removes zero-length edges, merging their tags away. A clip line
// through an existing vertex yields such edges; the surviving edge keeps
// the earlier tag, which is correct because coincident bisectors define
// the same geometric edge.
func (tp taggedPolygon) dedup() taggedPolygon {
	const eps = 1e-18
	n := len(tp.v)
	var outV []geom.Point
	var outT []taggedEdge
	for i := 0; i < n; i++ {
		if tp.v[i].Dist2(tp.v[(i+1)%n]) < eps {
			continue
		}
		outV = append(outV, tp.v[i])
		outT = append(outT, tp.tags[i])
	}
	// A zero-length edge removal can leave the loop shifted: re-anchor by
	// dropping a trailing vertex identical to the head.
	for len(outV) > 1 && outV[0].Dist2(outV[len(outV)-1]) < eps {
		outV = outV[:len(outV)-1]
		outT = outT[:len(outT)-1]
	}
	return taggedPolygon{v: outV, tags: outT}
}

// OrderKCell computes the order-k Voronoi cell V^k(O') of the kNN set knn,
// restricted to the given candidate outsiders: the set of points closer to
// every site in knn than to any site in candidates, clipped to the diagram
// bounds. When candidates ⊇ MIS(knn) — in particular when candidates is
// the INS of knn, by Theorem 1 — the result is exactly the order-k cell.
//
// The returned polygon is convex and counter-clockwise; it is empty only if
// knn is not the kNN set of any in-bounds location.
func (d *Diagram) OrderKCell(knn, candidates []int) (geom.Polygon, error) {
	tp, err := d.taggedOrderKCell(knn, candidates)
	if err != nil {
		return nil, err
	}
	return geom.Polygon(tp.v), nil
}

// OrderKCellExact computes V^k(O') against every live site outside knn.
// It is O(k·n) and exists as ground truth for tests and for the
// order-k-cell safe region baseline at small n.
func (d *Diagram) OrderKCellExact(knn []int) (geom.Polygon, error) {
	inKNN := make(map[int]bool, len(knn))
	for _, id := range knn {
		inKNN[id] = true
	}
	var cands []int
	for _, id := range d.IDs() {
		if !inKNN[id] {
			cands = append(cands, id)
		}
	}
	return d.OrderKCell(knn, cands)
}

func (d *Diagram) taggedOrderKCell(knn, candidates []int) (taggedPolygon, error) {
	tp := newTaggedRect(d.bounds)
	for _, o := range knn {
		if !d.Contains(o) {
			return taggedPolygon{}, fmt.Errorf("voronoi: order-k cell: site %d not live", o)
		}
		po := d.Site(o)
		for _, x := range candidates {
			if !d.Contains(x) {
				return taggedPolygon{}, fmt.Errorf("voronoi: order-k cell: candidate %d not live", x)
			}
			tp = tp.clip(geom.BisectorHalfPlane(po, d.Site(x)), taggedEdge{o, x})
			if len(tp.v) == 0 {
				return tp, nil
			}
		}
	}
	return tp.dedup(), nil
}

// MIS computes the minimal influential set MIS(O') of Definition 2: the
// union of the kNN sets of the order-k Voronoi cells adjacent to V^k(O'),
// minus O'. Equivalently — and this is how it is computed — it is the set
// of outside sites whose bisector with some kNN member supports an edge of
// V^k(O'): crossing that edge swaps exactly that pair.
//
// candidates must be a superset of the true MIS; passing the INS (Theorem 1)
// is always sound. Edges lying on the diagram bounds are not Voronoi edges
// and contribute nothing.
func (d *Diagram) MIS(knn, candidates []int) ([]int, error) {
	tp, err := d.taggedOrderKCell(knn, candidates)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	var out []int
	for _, tag := range tp.tags {
		if tag == boundaryEdge || seen[tag.otherID] {
			continue
		}
		seen[tag.otherID] = true
		out = append(out, tag.otherID)
	}
	sort.Ints(out)
	return out, nil
}
