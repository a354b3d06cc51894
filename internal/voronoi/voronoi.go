// Package voronoi materializes the order-1 Voronoi diagram of a point set
// (as the dual of a Delaunay triangulation) and provides the higher-order
// constructions the INS algorithm rests on: Voronoi neighbor sets
// (Definition 3 of the paper), the influential neighbor set I(O')
// (Definition 4), the order-k Voronoi cell of a kNN set (the strict safe
// region), and the minimal influential set MIS(O') (Definition 2).
//
// The diagram is dynamic: sites can be inserted and removed, which the
// query layer uses to handle data-object updates during a moving query.
package voronoi

import (
	"container/heap"
	"fmt"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// Diagram is a dynamic order-1 Voronoi diagram over a set of sites.
type Diagram struct {
	tri    *delaunay.Triangulation
	bounds geom.Rect
}

// NewDiagram returns an empty diagram accepting sites inside bounds. Cells
// are clipped to bounds when materialized as polygons; neighbor relations
// are those of the unbounded diagram.
func NewDiagram(bounds geom.Rect) *Diagram {
	return &Diagram{tri: delaunay.New(bounds), bounds: bounds}
}

// Build constructs a diagram of the given sites in one bulk pass (see
// delaunay.InsertAll). Exact duplicates collapse onto one site. The returned
// ids parallel pts.
func Build(bounds geom.Rect, pts []geom.Point) (*Diagram, []int, error) {
	d := NewDiagram(bounds)
	ids, err := d.tri.InsertAll(pts)
	if err != nil {
		return nil, nil, fmt.Errorf("voronoi: build: %w", err)
	}
	return d, ids, nil
}

// Site is one live site of a saved diagram: its id and position.
type Site = delaunay.Vertex

// Restore rebuilds, in the same bulk pass, a diagram whose live sites and
// id sequence are those of a saved one: sites strictly ascending by id,
// nextID the id the next Insert assigns, every id in between burned (see
// delaunay.Restore, whose errors it returns as they are).
func Restore(bounds geom.Rect, sites []Site, nextID int) (*Diagram, error) {
	tri, err := delaunay.Restore(bounds, sites, nextID)
	if err != nil {
		return nil, err
	}
	return &Diagram{tri: tri, bounds: bounds}, nil
}

// Bounds returns the clipping rectangle of the diagram.
func (d *Diagram) Bounds() geom.Rect { return d.bounds }

// Branch returns a new mutable version of the diagram in O(n/pageSize),
// sharing all untouched triangulation pages with the receiver, which is
// frozen: its reads stay valid forever, its mutations return an error. The
// index snapshot store publishes one branch per data-update epoch.
func (d *Diagram) Branch() *Diagram {
	return &Diagram{tri: d.tri.Branch(), bounds: d.bounds}
}

// Len returns the number of live sites.
func (d *Diagram) Len() int { return d.tri.Len() }

// IDs returns the ids of all live sites.
func (d *Diagram) IDs() []int { return d.tri.VertexIDs() }

// Site returns the coordinates of site id.
func (d *Diagram) Site(id int) geom.Point { return d.tri.Point(id) }

// Contains reports whether site id is live.
func (d *Diagram) Contains(id int) bool { return d.tri.Contains(id) }

// Insert adds a site and returns its id.
func (d *Diagram) Insert(p geom.Point) (int, error) { return d.tri.Insert(p) }

// PadSite burns one site id without adding a site, exactly as if the site
// had been inserted and removed. Restore pads the same way; this is the
// one-at-a-time form the per-object reference builders in tests use.
func (d *Diagram) PadSite() (int, error) { return d.tri.PadVertex() }

// IDUpperBound returns the id the next Insert will assign; removed sites
// keep their ids burned, so it can exceed Len.
func (d *Diagram) IDUpperBound() int { return d.tri.IDUpperBound() }

// Remove deletes a site.
func (d *Diagram) Remove(id int) error { return d.tri.Remove(id) }

// Neighbors returns the Voronoi neighbor set N_O(p_id) of Definition 3:
// the sites whose order-1 Voronoi cells share an edge with site id's cell.
func (d *Diagram) Neighbors(id int) ([]int, error) { return d.tri.Neighbors(id) }

// NeighborScratch is reusable buffer memory for AppendNeighbors; the zero
// value is ready to use. It must not be shared across goroutines.
type NeighborScratch = delaunay.RingScratch

// AppendNeighbors is Neighbors appending onto dst with caller-supplied
// scratch — the allocation-free form used by the serving hot path.
func (d *Diagram) AppendNeighbors(id int, dst []int, sc *NeighborScratch) ([]int, error) {
	return d.tri.AppendNeighbors(id, dst, sc)
}

// Nearest returns the id of the site nearest to p, or -1 if the diagram is
// empty.
func (d *Diagram) Nearest(p geom.Point) int { return d.tri.Nearest(p) }

// NearestFrom is Nearest starting from site hint, if live, for at most
// maxHops steps, with caller-supplied scratch and the cost of the search
// (see delaunay.NearestFrom).
func (d *Diagram) NearestFrom(p geom.Point, hint, maxHops int, sc *NeighborScratch) (id, cells, dists int) {
	return d.tri.NearestFrom(p, hint, maxHops, sc)
}

// ShareStats reports the triangulation pages this version copied or
// created since it was branched, and the total page count.
func (d *Diagram) ShareStats() (copied, total int) { return d.tri.ShareStats() }

// Cell materializes the order-1 Voronoi cell of site id clipped to the
// diagram bounds, as a counter-clockwise convex polygon. The cell of a
// site is fully determined by its Voronoi neighbors:
// V(p) = bounds ∩ ⋂_{u ∈ N(p)} {x : d(x,p) ≤ d(x,u)}.
func (d *Diagram) Cell(id int) (geom.Polygon, error) {
	nb, err := d.Neighbors(id)
	if err != nil {
		return nil, err
	}
	p := d.Site(id)
	hs := make([]geom.HalfPlane, 0, len(nb))
	for _, u := range nb {
		hs = append(hs, geom.BisectorHalfPlane(p, d.Site(u)))
	}
	return geom.IntersectHalfPlanes(d.bounds, hs), nil
}

// KNN returns the k nearest sites to q in ascending distance order, using
// best-first expansion over the Voronoi adjacency graph seeded at the
// nearest site. Ties are broken by id for determinism. Fewer than k ids
// are returned when the diagram is smaller than k.
func (d *Diagram) KNN(q geom.Point, k int) []int {
	if k <= 0 || d.Len() == 0 {
		return nil
	}
	start := d.Nearest(q)
	if start < 0 {
		return nil
	}
	pq := &distHeap{}
	heap.Init(pq)
	seen := map[int]bool{start: true}
	heap.Push(pq, distItem{id: start, d2: q.Dist2(d.Site(start))})
	out := make([]int, 0, k)
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(pq).(distItem)
		out = append(out, it.id)
		nb, err := d.Neighbors(it.id)
		if err != nil {
			continue // site raced away; cannot happen single-threaded
		}
		for _, u := range nb {
			if !seen[u] {
				seen[u] = true
				heap.Push(pq, distItem{id: u, d2: q.Dist2(d.Site(u))})
			}
		}
	}
	return out
}

// distItem and distHeap implement the best-first frontier for KNN.
type distItem struct {
	id int
	d2 float64
}

type distHeap []distItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].d2 != h[j].d2 {
		return h[i].d2 < h[j].d2
	}
	return h[i].id < h[j].id
}
func (h distHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)   { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
