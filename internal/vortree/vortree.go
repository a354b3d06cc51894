// Package vortree is the plane index of the INSQ query processor: the
// order-1 Voronoi diagram of the data objects, with each object's Voronoi
// neighbor list read off the Delaunay triangulation, in the role of the
// VoR-tree of Sharifzadeh and Shahabi (PVLDB 2010, reference [7] of the
// paper). The VoR-tree finds the nearest object by best-first R-tree
// traversal; this index has no R-tree. A search that knows an object near
// its query walks from it over the Voronoi neighbor lists, and any other
// search starts its walk at the entry grid of the triangulation, one object
// per cell (delaunay.NearestFrom). The kNN set is then grown incrementally
// by expanding Voronoi neighbors, which yields the prefetched set R of the
// INSQ query processor and, as what the expansion has reached but not
// taken, its influential neighbor set I(R) (see search.go).
package vortree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/voronoi"
)

// Index is the plane index: the order-1 Voronoi diagram of the indexed
// objects, kept in sync under insertions and deletions. Object ids are
// assigned by the diagram.
type Index struct {
	diag *voronoi.Diagram
}

// New returns an empty index accepting points inside bounds.
func New(bounds geom.Rect) *Index {
	return &Index{diag: voronoi.NewDiagram(bounds)}
}

// Build constructs an index over pts in one bulk pass — the diagram's
// Hilbert-ordered build — and returns the ids it assigned, parallel to pts.
// Duplicate points collapse to a single object. A failed Build has built
// nothing. fanout is ignored: it was the R-tree's node fanout, and it stays
// only so that existing callers keep compiling.
func Build(bounds geom.Rect, fanout int, pts []geom.Point) (*Index, []int, error) {
	diag, ids, err := voronoi.Build(bounds, pts)
	if err != nil {
		return nil, nil, fmt.Errorf("vortree: build: %w", err)
	}
	return &Index{diag: diag}, ids, nil
}

// RestoreObject is one live object of a serialized index snapshot: its
// assigned id and its position.
type RestoreObject = voronoi.Site

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
	diag, err := voronoi.Restore(bounds, objs, nextID)
	if err != nil {
		return nil, fmt.Errorf("vortree: %w", err)
	}
	return &Index{diag: diag}, nil
}

// NextID returns the id the next Insert will assign. Removed objects keep
// their ids burned, so it can exceed Len; checkpoints persist it so a
// restored index keeps assigning the same ids.
func (ix *Index) NextID() int { return ix.diag.IDUpperBound() }

// Diagram exposes the underlying Voronoi diagram (shared, do not mutate
// except through Index methods).
func (ix *Index) Diagram() *voronoi.Diagram { return ix.diag }

// Branch returns a new mutable version of the index: the diagram branches
// its copy-on-write page tables in O(n/pageSize). The receiver is frozen —
// reads on it stay valid and race-free forever, mutations are rejected —
// which is exactly the lifecycle of a published index snapshot.
// Publication cost is therefore sublinear in the object count, and a branch
// that is never published is simply dropped.
func (ix *Index) Branch() *Index { return &Index{diag: ix.diag.Branch()} }

// ShareStats reports the structural sharing of this version: the
// triangulation pages (faces, vertex-face hints, entry grid) it copied or
// created since it was branched, and the total page count. 1 -
// copied/total is the fraction of the index the latest epoch shares with
// its predecessor.
func (ix *Index) ShareStats() (copied, total int) { return ix.diag.ShareStats() }

// INS returns the influential neighbor set I(knn) of Definition 4 under
// the order-1 Voronoi diagram of the indexed objects, sorted by id.
func (ix *Index) INS(knn []int) ([]int, error) { return ix.diag.INS(knn) }

// Len returns the number of live objects.
func (ix *Index) Len() int { return ix.diag.Len() }

// Point returns the coordinates of object id.
func (ix *Index) Point(id int) geom.Point { return ix.diag.Site(id) }

// Contains reports whether object id is live.
func (ix *Index) Contains(id int) bool { return ix.diag.Contains(id) }

// Insert adds an object and returns its id. Inserting a duplicate point
// returns the existing id without error.
func (ix *Index) Insert(p geom.Point) (int, error) {
	before := ix.diag.Len()
	id, err := ix.diag.Insert(p)
	if err != nil {
		if ix.diag.Len() == before && id >= 0 {
			return id, nil // exact duplicate: already indexed
		}
		return -1, err
	}
	return id, nil
}

// Remove deletes object id.
func (ix *Index) Remove(id int) error {
	if !ix.diag.Contains(id) {
		return fmt.Errorf("vortree: remove: unknown id %d", id)
	}
	return ix.diag.Remove(id)
}

// Neighbors returns the Voronoi neighbor list stored with object id.
func (ix *Index) Neighbors(id int) ([]int, error) { return ix.diag.Neighbors(id) }
