// Package vortree is the plane index of the INSQ query processor: the
// order-1 Voronoi diagram of the data objects, as the dual of their Delaunay
// triangulation, with each object's Voronoi neighbor list read off the
// triangulation, in the role of the VoR-tree of Sharifzadeh and Shahabi
// (PVLDB 2010, reference [7] of the paper). The VoR-tree finds the nearest
// object by best-first R-tree traversal; this index has no R-tree. A search
// that knows an object near its query walks from it over the Voronoi
// neighbor lists, and any other search starts its walk at the entry grid of
// the triangulation, one object per cell (delaunay.NearestFrom). The kNN set
// is then grown incrementally by expanding Voronoi neighbors, which yields
// the prefetched set R of the INSQ query processor and, as what the
// expansion has reached but not taken, its influential neighbor set I(R)
// (see search.go).
//
// The index also carries the constructions the paper's argument rests on,
// for the experiments, the baselines and the tests: the order-1 cell of an
// object (Cell), the influential neighbor set of Definition 4 by its
// definition (INS), the order-k Voronoi cell of a kNN set — the strict safe
// region — against a candidate set or every object (OrderKCell,
// OrderKCellExact), the minimal influential set of Definition 2 (MIS) and
// the swaps across the order-k cell's edges (CellSwaps), and the whole
// order-k diagram by traversal of those swaps (EnumerateOrderK).
package vortree

import (
	"errors"
	"fmt"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// Index is the plane index: the order-1 Voronoi diagram of the indexed
// objects, kept in sync under insertions and deletions. Object ids are
// assigned by the triangulation.
type Index struct {
	tri *delaunay.Triangulation
}

// New returns an empty index accepting points inside bounds. Cells are
// clipped to bounds when materialized as polygons; neighbor relations are
// those of the unbounded diagram.
func New(bounds geom.Rect) *Index {
	return &Index{tri: delaunay.New(bounds)}
}

// Build constructs an index over pts in one bulk pass — the triangulation's
// Hilbert-ordered build (delaunay.InsertAll) — and returns the ids it
// assigned, parallel to pts. Duplicate points collapse to a single object.
// A failed Build has built nothing. fanout is ignored: it was the R-tree's
// node fanout, and it stays only so that existing callers keep compiling.
func Build(bounds geom.Rect, fanout int, pts []geom.Point) (*Index, []int, error) {
	ix := New(bounds)
	ids, err := ix.tri.InsertAll(pts)
	if err != nil {
		return nil, nil, fmt.Errorf("vortree: build: %w", err)
	}
	return ix, ids, nil
}

// RestoreObject is one live object of a serialized index snapshot: its
// assigned id and its position.
type RestoreObject = delaunay.Vertex

// Restore rebuilds an index whose live object set AND id sequence match
// a checkpointed index: objs must be strictly ascending by id, and nextID
// is the id the original index would assign to the next insert (ids of
// removed objects stay burned, so nextID can exceed len(objs)). It is the
// bulk pass of Build with the ids given rather than assigned, and it
// rejects up front an id sequence it cannot reproduce — ids out of order
// or not below nextID, a point out of bounds, two objects on one point, a
// nextID past the id space. The triangulation may pick other diagonals
// than the original's, which grew by inserts, but every query answer and
// every id assigned after the restore is identical, which is what crash
// recovery (internal/wal) needs to replay a write-ahead log on top.
func Restore(bounds geom.Rect, objs []RestoreObject, nextID int) (*Index, error) {
	tri, err := delaunay.Restore(bounds, objs, nextID)
	if err != nil {
		return nil, fmt.Errorf("vortree: %w", err)
	}
	return &Index{tri: tri}, nil
}

// NextID returns the id the next Insert will assign. Removed objects keep
// their ids burned, so it can exceed Len; checkpoints persist it so a
// restored index keeps assigning the same ids.
func (ix *Index) NextID() int { return ix.tri.IDUpperBound() }

// Bounds returns the data space: where objects may lie, and what cells are
// clipped to.
func (ix *Index) Bounds() geom.Rect { return ix.tri.Bounds() }

// Branch returns a new mutable version of the index: the triangulation
// branches its copy-on-write page tables in O(n/pageSize). The receiver is
// frozen — reads on it stay valid and race-free forever, mutations are
// rejected — which is exactly the lifecycle of a published index snapshot.
// Publication cost is therefore sublinear in the object count, and a branch
// that is never published is simply dropped.
func (ix *Index) Branch() *Index { return &Index{tri: ix.tri.Branch()} }

// ShareStats reports the structural sharing of this version: the
// triangulation pages (faces, vertex-face hints, entry grid) it copied or
// created since it was branched, and the total page count. 1 -
// copied/total is the fraction of the index the latest epoch shares with
// its predecessor.
func (ix *Index) ShareStats() (copied, total int) { return ix.tri.ShareStats() }

// Len returns the number of live objects.
func (ix *Index) Len() int { return ix.tri.Len() }

// IDs returns the ids of all live objects, ascending.
func (ix *Index) IDs() []int { return ix.tri.VertexIDs() }

// Point returns the coordinates of object id.
func (ix *Index) Point(id int) geom.Point { return ix.tri.Point(id) }

// Contains reports whether object id is live.
func (ix *Index) Contains(id int) bool { return ix.tri.Contains(id) }

// Insert adds an object and returns its id. Inserting a duplicate point
// returns the existing id without error.
func (ix *Index) Insert(p geom.Point) (int, error) {
	id, err := ix.tri.Insert(p)
	if err != nil && !errors.Is(err, delaunay.ErrDuplicate) {
		return -1, err
	}
	return id, nil
}

// Remove deletes object id.
func (ix *Index) Remove(id int) error {
	if !ix.tri.Contains(id) {
		return fmt.Errorf("vortree: remove: unknown id %d", id)
	}
	return ix.tri.Remove(id)
}

// Neighbors returns the Voronoi neighbor set N_O(p_id) of Definition 3:
// the objects whose order-1 Voronoi cells share an edge with object id's
// cell.
func (ix *Index) Neighbors(id int) ([]int, error) { return ix.tri.Neighbors(id) }

// Cell materializes the order-1 Voronoi cell of object id clipped to the
// bounds, as a counter-clockwise convex polygon. The cell of an object is
// fully determined by its Voronoi neighbors:
// V(p) = bounds ∩ ⋂_{u ∈ N(p)} {x : d(x,p) ≤ d(x,u)}.
func (ix *Index) Cell(id int) (geom.Polygon, error) {
	nb, err := ix.Neighbors(id)
	if err != nil {
		return nil, err
	}
	p := ix.Point(id)
	hs := make([]geom.HalfPlane, 0, len(nb))
	for _, u := range nb {
		hs = append(hs, geom.BisectorHalfPlane(p, ix.Point(u)))
	}
	return geom.IntersectHalfPlanes(ix.Bounds(), hs), nil
}
