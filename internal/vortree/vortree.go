// Package vortree implements the VoR-tree of Sharifzadeh and Shahabi
// (PVLDB 2010, reference [7] of the paper): an R-tree over the data objects
// whose entries additionally carry the objects' Voronoi neighbor lists.
// The nearest object is found by best-first R-tree traversal — or, when the
// caller knows an object near the query, by a short walk over the Voronoi
// neighbor lists; the kNN set is then grown incrementally by expanding
// Voronoi neighbors, which yields the prefetched set R of the INSQ query
// processor and, as what the expansion has reached but not taken, its
// influential neighbor set I(R) (see search.go).
package vortree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/voronoi"
)

// Index is a VoR-tree: a spatial index plus the order-1 Voronoi diagram of
// the indexed objects, kept in sync under insertions and deletions. Object
// ids are assigned by the Voronoi diagram and shared with the R-tree.
type Index struct {
	tree *rtree.Tree
	diag *voronoi.Diagram
}

// New returns an empty VoR-tree accepting points inside bounds.
func New(bounds geom.Rect, fanout int) *Index {
	return &Index{tree: rtree.New(fanout), diag: voronoi.NewDiagram(bounds)}
}

// Build constructs a VoR-tree over pts in one bulk pass — the diagram's
// Hilbert-ordered build, then the R-tree packed over the ids it assigned —
// and returns those ids parallel to pts. Duplicate points collapse to a
// single object. A failed Build has built nothing.
func Build(bounds geom.Rect, fanout int, pts []geom.Point) (*Index, []int, error) {
	diag, ids, err := voronoi.Build(bounds, pts)
	if err != nil {
		return nil, nil, fmt.Errorf("vortree: build: %w", err)
	}
	// Ids count up from 0 in order of first occurrence, so a point whose id
	// is not the next one repeats an earlier point.
	items := make([]rtree.Item, 0, diag.Len())
	for i, id := range ids {
		if id == len(items) {
			items = append(items, rtree.Item{ID: id, P: pts[i]})
		}
	}
	return &Index{tree: rtree.BulkLoad(fanout, items), diag: diag}, ids, nil
}

// RestoreObject is one live object of a serialized index snapshot: its
// assigned id and its position.
type RestoreObject = voronoi.Site

// Restore rebuilds a VoR-tree whose live object set AND id sequence match
// a checkpointed index: objs must be strictly ascending by id, and nextID
// is the id the original index would assign to the next insert (ids of
// removed objects stay burned, so nextID can exceed len(objs)). It is the
// bulk pass of Build with the ids given rather than assigned, and it
// rejects up front an id sequence it cannot reproduce — ids out of order
// or not below nextID, a point out of bounds, two objects on one point, a
// nextID past the id space. The physical tree shape differs from the
// original's, which grew by inserts, but every query answer and every id
// assigned after the restore is identical, which is what crash recovery
// (internal/wal) needs to replay a write-ahead log on top.
func Restore(bounds geom.Rect, fanout int, objs []RestoreObject, nextID int) (*Index, error) {
	diag, err := voronoi.Restore(bounds, objs, nextID)
	if err != nil {
		return nil, fmt.Errorf("vortree: %w", err)
	}
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item(o)
	}
	return &Index{tree: rtree.BulkLoad(fanout, items), diag: diag}, nil
}

// NextID returns the id the next Insert will assign. Removed objects keep
// their ids burned, so it can exceed Len; checkpoints persist it so a
// restored index keeps assigning the same ids.
func (ix *Index) NextID() int { return ix.diag.IDUpperBound() }

// Diagram exposes the underlying Voronoi diagram (shared, do not mutate
// except through Index methods).
func (ix *Index) Diagram() *voronoi.Diagram { return ix.diag }

// Tree exposes the underlying R-tree (shared, do not mutate except through
// Index methods).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// Clone returns a deep copy of the VoR-tree with the same object ids. The
// R-tree side is persistent, so only the
// Voronoi overlay is physically copied; Clone is the fallback publication
// path where the overlay's structural sharing is unsafe (see Branch).
func (ix *Index) Clone() *Index {
	return &Index{tree: ix.tree.Clone(), diag: ix.diag.Clone()}
}

// Branch returns a new mutable version of the VoR-tree by path copying:
// the R-tree hands out an O(1) persistent handle (mutations then copy only
// the root-to-leaf spines they touch) and the Voronoi overlay branches its
// copy-on-write page tables in O(n/pageSize). The receiver is frozen —
// reads on it stay valid and race-free forever, mutations are rejected —
// which is exactly the lifecycle of a published index snapshot. Publication
// cost is therefore sublinear in the object count, where Clone is O(n).
func (ix *Index) Branch() *Index {
	return &Index{tree: ix.tree.Clone(), diag: ix.diag.Branch()}
}

// ShareStats reports the structural-sharing instrumentation of the R-tree:
// the nodes copied or created through this version's handle since it was
// branched, and the total node count. 1 - copied/total is the fraction of
// index nodes the latest epoch shares with its predecessor.
func (ix *Index) ShareStats() (copied, total int) {
	return ix.tree.CopiedNodes(), ix.tree.NodeCount()
}

// INS returns the influential neighbor set I(knn) of Definition 4 under
// the order-1 Voronoi diagram of the indexed objects, sorted by id.
func (ix *Index) INS(knn []int) ([]int, error) { return ix.diag.INS(knn) }

// Len returns the number of live objects.
func (ix *Index) Len() int { return ix.diag.Len() }

// Point returns the coordinates of object id.
func (ix *Index) Point(id int) geom.Point { return ix.diag.Site(id) }

// Contains reports whether object id is live.
func (ix *Index) Contains(id int) bool { return ix.diag.Contains(id) }

// Insert adds an object to both structures and returns its id. Inserting a
// duplicate point returns the existing id without error.
func (ix *Index) Insert(p geom.Point) (int, error) {
	before := ix.diag.Len()
	id, err := ix.diag.Insert(p)
	if err != nil {
		if ix.diag.Len() == before && id >= 0 {
			return id, nil // exact duplicate: already indexed
		}
		return -1, err
	}
	ix.tree.Insert(rtree.Item{ID: id, P: p})
	return id, nil
}

// Remove deletes object id from both structures.
func (ix *Index) Remove(id int) error {
	if !ix.diag.Contains(id) {
		return fmt.Errorf("vortree: remove: unknown id %d", id)
	}
	p := ix.diag.Site(id)
	if err := ix.diag.Remove(id); err != nil {
		return err
	}
	if !ix.tree.Delete(id, p) {
		return fmt.Errorf("vortree: remove: id %d missing from R-tree", id)
	}
	return nil
}

// Neighbors returns the Voronoi neighbor list stored with object id.
func (ix *Index) Neighbors(id int) ([]int, error) { return ix.diag.Neighbors(id) }

// NN returns the object nearest to q using best-first R-tree search, or -1
// when the index is empty.
func (ix *Index) NN(q geom.Point) int {
	items := ix.tree.KNN(q, 1)
	if len(items) == 0 {
		return -1
	}
	return items[0].ID
}
