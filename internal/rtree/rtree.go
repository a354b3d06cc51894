// Package rtree implements an in-memory R-tree over 2D points with
// Guttman's quadratic split, best-first (incremental) k-nearest-neighbor
// search, range queries, and deletion with tree condensation. It is the
// index substrate under the VoR-tree (package vortree), which the INSQ
// system uses to seed kNN computation, mirroring reference [7] of the
// paper.
//
// The tree is persistent with path copying: every mutation copies only the
// root-to-leaf spine it touches and shares all untouched nodes with earlier
// versions. Clone is therefore O(1) — it hands out a new handle on the same
// node graph — and the copy-on-write index snapshot store publishes a new
// epoch in time proportional to the mutation batch, not the object count.
// An ownership token makes repeated mutations through the same handle
// mutate already-copied nodes in place, so a batch of mutations pays the
// spine copy only once per node, not once per insert. A tree over a known
// item set is not grown by inserts at all: BulkLoad (bulk.go) packs it
// sort-tile-recursive into the same kind of nodes, all owned by the new
// handle.
package rtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
)

// DefaultMaxEntries is the default node fanout (M). Minimum occupancy is
// M/2 as in Guttman's original design.
const DefaultMaxEntries = 16

// Item is a point payload stored in the tree. ID is caller-chosen and must
// be unique; the tree never interprets it.
type Item struct {
	ID int
	P  geom.Point
}

// owner is an identity token: nodes carry the token of the tree handle that
// created (or copied) them, and only that handle may mutate them in place.
// Clone issues fresh tokens to both handles, so mutations on either side
// path-copy any node still shared with the other.
type owner struct{ _ byte }

type node struct {
	own      *owner
	rect     geom.Rect
	children []*node // nil at leaves
	items    []Item  // nil at internal nodes
}

func (n *node) leaf() bool { return n.children == nil }

func (n *node) entries() int {
	if n.leaf() {
		return len(n.items)
	}
	return len(n.children)
}

func (n *node) recomputeRect() {
	if n.leaf() {
		if len(n.items) == 0 {
			n.rect = geom.Rect{}
			return
		}
		r := geom.Rect{Min: n.items[0].P, Max: n.items[0].P}
		for _, it := range n.items[1:] {
			r = r.ExpandPoint(it.P)
		}
		n.rect = r
		return
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Expand(c.rect)
	}
	n.rect = r
}

// Tree is an R-tree handle over a (possibly shared) persistent node graph.
// The zero value is not usable; call New. A Tree is safe for concurrent
// readers; mutations require external serialization and must go through
// exactly one handle per version (the snapshot store's contract).
type Tree struct {
	// own, nodes and copied are atomic because Clone retires the
	// receiver's ownership token (and zeroes its copy counter) while the
	// receiver — a published, frozen snapshot — may be concurrently read,
	// including by the share-stats instrumentation. Mutations still
	// require external serialization.
	own    atomic.Pointer[owner]
	root   *node
	size   int
	max    int          // max entries per node (M)
	min    int          // min entries per node (m = M/2)
	nodes  atomic.Int64 // total nodes reachable from root (bookkept incrementally)
	copied atomic.Int64 // nodes copied or created since the last Clone
}

// New returns an empty tree with the given maximum node fanout; fanout < 4
// is raised to 4. Use DefaultMaxEntries when in doubt.
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	t := &Tree{
		max: maxEntries,
		min: maxEntries / 2,
	}
	t.own.Store(new(owner))
	t.root = t.newLeaf()
	return t
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// NodeCount returns the number of nodes in this version of the tree.
func (t *Tree) NodeCount() int { return int(t.nodes.Load()) }

// CopiedNodes returns the number of nodes copied or freshly created through
// this handle since it was issued (by New or Clone). Together with
// NodeCount it measures structural sharing: after a Clone-plus-mutation,
// NodeCount-CopiedNodes nodes are shared with the previous version.
func (t *Tree) CopiedNodes() int { return int(t.copied.Load()) }

// Clone returns a new handle on the same node graph in O(1): no nodes are
// copied. Both handles then mutate with path
// copying — each copies only the root-to-leaf spines it touches and shares
// everything else — so the index snapshot store publishes the next epoch
// without duplicating the index. Clone itself issues fresh ownership tokens
// to both sides; it must not race with a mutation of the receiver.
func (t *Tree) Clone() *Tree {
	t.own.Store(new(owner))
	t.copied.Store(0)
	c := &Tree{root: t.root, size: t.size, max: t.max, min: t.min}
	c.own.Store(new(owner))
	c.nodes.Store(t.nodes.Load())
	return c
}

// newLeaf allocates an empty leaf owned by t.
func (t *Tree) newLeaf() *node {
	t.nodes.Add(1)
	t.copied.Add(1)
	return &node{own: t.own.Load(), items: []Item{}}
}

// newInternal allocates an internal node owned by t.
func (t *Tree) newInternal(children []*node) *node {
	t.nodes.Add(1)
	t.copied.Add(1)
	n := &node{own: t.own.Load(), children: children}
	n.recomputeRect()
	return n
}

// mutable returns n if this handle already owns it, otherwise a shallow
// copy (fresh entry slice, shared grandchildren) owned by t — the path-copy
// step. Callers must re-link the returned node into their own copy of the
// parent.
func (t *Tree) mutable(n *node) *node {
	own := t.own.Load()
	if n.own == own {
		return n
	}
	t.copied.Add(1)
	cp := &node{own: own, rect: n.rect}
	if n.leaf() {
		cp.items = append(make([]Item, 0, len(n.items)+1), n.items...)
	} else {
		cp.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	return cp
}

// Insert adds an item. Duplicate points are allowed; duplicate IDs are the
// caller's responsibility.
func (t *Tree) Insert(it Item) {
	root, sib := t.insert(t.root, it)
	if sib != nil {
		root = t.newInternal([]*node{root, sib})
	}
	t.root = root
	t.size++
}

// insert adds it under n, path-copying the spine. It returns the (possibly
// copied) replacement for n and, when n overflowed, the split-off sibling.
func (t *Tree) insert(n *node, it Item) (*node, *node) {
	n = t.mutable(n)
	if n.leaf() {
		n.items = append(n.items, it)
		n.rect = leafAdjust(n, it.P)
		if len(n.items) > t.max {
			return n, t.splitLeaf(n)
		}
		return n, nil
	}
	i := chooseChild(n, it.P)
	child, sib := t.insert(n.children[i], it)
	n.children[i] = child
	n.rect = n.rect.Expand(child.rect)
	if sib != nil {
		n.children = append(n.children, sib)
		n.rect = n.rect.Expand(sib.rect)
		if len(n.children) > t.max {
			return n, t.splitInternal(n)
		}
	}
	return n, nil
}

func leafAdjust(n *node, p geom.Point) geom.Rect {
	if len(n.items) == 1 {
		return geom.Rect{Min: p, Max: p}
	}
	return n.rect.ExpandPoint(p)
}

// chooseChild picks the child needing least enlargement to cover p
// (ties by smaller area), Guttman's ChooseLeaf step.
func chooseChild(n *node, p geom.Point) int {
	pr := geom.Rect{Min: p, Max: p}
	best := 0
	bestEnl := n.children[0].rect.EnlargementArea(pr)
	for i, c := range n.children[1:] {
		enl := c.rect.EnlargementArea(pr)
		if enl < bestEnl || (enl == bestEnl && c.rect.Area() < n.children[best].rect.Area()) {
			best, bestEnl = i+1, enl
		}
	}
	return best
}

// splitLeaf performs Guttman's quadratic split on an overfull leaf (owned
// by t), leaving half the entries in n and returning a new sibling with the
// rest.
func (t *Tree) splitLeaf(n *node) *node {
	items := n.items
	seedA, seedB := pickSeedsItems(items)
	groupA := []Item{items[seedA]}
	groupB := []Item{items[seedB]}
	rectA := geom.Rect{Min: items[seedA].P, Max: items[seedA].P}
	rectB := geom.Rect{Min: items[seedB].P, Max: items[seedB].P}
	rest := make([]Item, 0, len(items)-2)
	for i, it := range items {
		if i != seedA && i != seedB {
			rest = append(rest, it)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must take all remaining entries
		// to reach minimum occupancy.
		if len(groupA)+len(rest) == t.min {
			for _, it := range rest {
				groupA = append(groupA, it)
				rectA = rectA.ExpandPoint(it.P)
			}
			break
		}
		if len(groupB)+len(rest) == t.min {
			for _, it := range rest {
				groupB = append(groupB, it)
				rectB = rectB.ExpandPoint(it.P)
			}
			break
		}
		// pickNext: entry with maximum preference difference.
		bestIdx, bestDiff, toA := 0, -1.0, true
		for i, it := range rest {
			dA := rectA.EnlargementArea(geom.Rect{Min: it.P, Max: it.P})
			dB := rectB.EnlargementArea(geom.Rect{Min: it.P, Max: it.P})
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
				toA = dA < dB || (dA == dB && rectA.Area() < rectB.Area())
			}
		}
		it := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		if toA {
			groupA = append(groupA, it)
			rectA = rectA.ExpandPoint(it.P)
		} else {
			groupB = append(groupB, it)
			rectB = rectB.ExpandPoint(it.P)
		}
	}
	n.items = groupA
	n.recomputeRect()
	t.nodes.Add(1)
	t.copied.Add(1)
	sib := &node{own: t.own.Load(), items: groupB}
	sib.recomputeRect()
	return sib
}

// splitInternal is splitLeaf for an overfull internal node owned by t.
func (t *Tree) splitInternal(n *node) *node {
	children := n.children
	seedA, seedB := pickSeedsNodes(children)
	groupA := []*node{children[seedA]}
	groupB := []*node{children[seedB]}
	rectA, rectB := children[seedA].rect, children[seedB].rect
	rest := make([]*node, 0, len(children)-2)
	for i, c := range children {
		if i != seedA && i != seedB {
			rest = append(rest, c)
		}
	}
	for len(rest) > 0 {
		if len(groupA)+len(rest) == t.min {
			for _, c := range rest {
				groupA = append(groupA, c)
				rectA = rectA.Expand(c.rect)
			}
			break
		}
		if len(groupB)+len(rest) == t.min {
			for _, c := range rest {
				groupB = append(groupB, c)
				rectB = rectB.Expand(c.rect)
			}
			break
		}
		bestIdx, bestDiff, toA := 0, -1.0, true
		for i, c := range rest {
			dA := rectA.EnlargementArea(c.rect)
			dB := rectB.EnlargementArea(c.rect)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
				toA = dA < dB || (dA == dB && rectA.Area() < rectB.Area())
			}
		}
		c := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		if toA {
			groupA = append(groupA, c)
			rectA = rectA.Expand(c.rect)
		} else {
			groupB = append(groupB, c)
			rectB = rectB.Expand(c.rect)
		}
	}
	n.children = groupA
	n.recomputeRect()
	t.nodes.Add(1)
	t.copied.Add(1)
	sib := &node{own: t.own.Load(), children: groupB}
	sib.recomputeRect()
	return sib
}

func pickSeedsItems(items []Item) (int, int) {
	worst, si, sj := -1.0, 0, 1
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			r := geom.RectOf(items[i].P, items[j].P)
			if d := r.Area(); d > worst {
				worst, si, sj = d, i, j
			}
		}
	}
	return si, sj
}

func pickSeedsNodes(nodes []*node) (int, int) {
	worst, si, sj := -1.0, 0, 1
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			d := nodes[i].rect.Expand(nodes[j].rect).Area() -
				nodes[i].rect.Area() - nodes[j].rect.Area()
			if d > worst {
				worst, si, sj = d, i, j
			}
		}
	}
	return si, sj
}

// Delete removes the item with the given id at point p (the point is used
// to find the leaf efficiently). It returns false when no such item exists.
// Underfull nodes are condensed: their remaining entries are reinserted.
// Like Insert, deletion path-copies the touched spine, leaving earlier
// versions intact.
func (t *Tree) Delete(id int, p geom.Point) bool {
	var orphanItems []Item
	var orphanNodes []*node
	root, found := t.delete(t.root, id, p, &orphanItems, &orphanNodes)
	if !found {
		return false
	}
	t.root = root
	t.size--
	// Shrink the root while it has a single internal child.
	for !t.root.leaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.nodes.Add(-1)
	}
	if !t.root.leaf() && len(t.root.children) == 0 {
		t.nodes.Add(-1)
		t.root = t.newLeaf()
	}
	// Reinsert orphans. They are still counted in t.size, so compensate
	// for the increment Insert performs.
	for _, it := range orphanItems {
		t.Insert(it)
		t.size--
	}
	for _, on := range orphanNodes {
		t.reinsertSubtree(on)
	}
	return true
}

// delete removes the item from the subtree at n. It returns the (possibly
// copied) replacement for n and whether the item was found; underfull
// children are dissolved into the orphan lists for reinsertion (Guttman's
// CondenseTree). Until the item is found nothing is copied, so a miss
// leaves the tree untouched.
func (t *Tree) delete(n *node, id int, p geom.Point, orphanItems *[]Item, orphanNodes *[]*node) (*node, bool) {
	if n.leaf() {
		for i, it := range n.items {
			if it.ID == id {
				n = t.mutable(n)
				n.items = append(n.items[:i], n.items[i+1:]...)
				n.recomputeRect()
				return n, true
			}
		}
		return n, false
	}
	for i, c := range n.children {
		if !c.rect.Contains(p) {
			continue
		}
		nc, found := t.delete(c, id, p, orphanItems, orphanNodes)
		if !found {
			continue
		}
		n = t.mutable(n)
		if nc.entries() < t.min {
			// Condense: dissolve the underfull child; its entries are
			// reinserted by Delete once the spine is rebuilt.
			if nc.leaf() {
				*orphanItems = append(*orphanItems, nc.items...)
			} else {
				*orphanNodes = append(*orphanNodes, nc.children...)
			}
			t.nodes.Add(-1)
			n.children = append(n.children[:i], n.children[i+1:]...)
		} else {
			n.children[i] = nc
		}
		n.recomputeRect()
		return n, true
	}
	return n, false
}

// reinsertSubtree dissolves an orphaned subtree, reinserting its items at
// leaf level (their node structure is discarded).
func (t *Tree) reinsertSubtree(n *node) {
	t.nodes.Add(-1)
	if n.leaf() {
		for _, it := range n.items {
			t.Insert(it)
			t.size--
		}
		return
	}
	for _, c := range n.children {
		t.reinsertSubtree(c)
	}
}

// Search returns the ids of all items inside r (boundary inclusive).
func (t *Tree) Search(r geom.Rect) []int {
	var out []int
	t.search(t.root, r, &out)
	return out
}

func (t *Tree) search(n *node, r geom.Rect, out *[]int) {
	if n.leaf() {
		for _, it := range n.items {
			if r.Contains(it.P) {
				*out = append(*out, it.ID)
			}
		}
		return
	}
	for _, c := range n.children {
		if c.rect.Intersects(r) {
			t.search(c, r, out)
		}
	}
}

// KNN returns the k nearest items to q in ascending distance order using
// best-first traversal (Hjaltason & Samet). Ties break by id.
func (t *Tree) KNN(q geom.Point, k int) []Item {
	items, _ := t.KNNWithVisits(q, k)
	return items
}

// KNNWithVisits is KNN returning the number of nodes this search visited
// (the page-I/O stand-in of the experiments). The count is per search, so
// it is exact when other goroutines search the tree concurrently (shared
// index snapshots) and costs them no shared cache line.
func (t *Tree) KNNWithVisits(q geom.Point, k int) ([]Item, int) {
	if k <= 0 || t.size == 0 {
		return nil, 0
	}
	out := make([]Item, 0, k)
	var it KNNIterator
	it.Reset(t, q)
	for len(out) < k {
		item, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, item)
	}
	return out, it.Visited()
}

// KNNIterator yields items in ascending distance from a query point, one
// at a time. The VoR-tree and the prefetch logic of the INS algorithm use
// it to extend a kNN set incrementally without restarting the search. The
// zero value is usable via Reset, which also lets callers reuse one
// iterator (and its heap memory) across searches — the allocation-free
// serving path keeps one per shard worker.
type KNNIterator struct {
	q      geom.Point
	pq     knnHeap
	visits int
}

// Visited returns the number of nodes this iterator has touched.
func (it *KNNIterator) Visited() int { return it.visits }

// NewKNNIterator starts an incremental nearest-neighbor scan from q.
func (t *Tree) NewKNNIterator(q geom.Point) *KNNIterator {
	it := &KNNIterator{}
	it.Reset(t, q)
	return it
}

// Reset rewinds the iterator to a fresh scan of t from q, reusing its
// internal heap memory.
func (it *KNNIterator) Reset(t *Tree, q geom.Point) {
	it.Release()
	it.q = q
	it.visits = 0
	it.pq.push(knnEntry{node: t.root, d2: t.root.rect.Dist2Point(q)})
}

// Release abandons the scan: the frontier is zeroed so its node pointers
// stop keeping subtrees of a superseded snapshot version reachable from a
// long-lived scratch. Visited keeps its value; Next reports exhaustion
// until the next Reset. A caller that takes only a prefix of the scan calls
// it as soon as it has what it needs.
func (it *KNNIterator) Release() {
	clear(it.pq)
	it.pq = it.pq[:0]
}

// Next returns the next-nearest item, or ok=false when exhausted.
func (it *KNNIterator) Next() (Item, bool) {
	for len(it.pq) > 0 {
		e := it.pq.pop()
		if e.node == nil {
			return e.item, true
		}
		it.visits++
		n := e.node
		if n.leaf() {
			for _, item := range n.items {
				it.pq.push(knnEntry{item: item, d2: it.q.Dist2(item.P)})
			}
			continue
		}
		for _, c := range n.children {
			it.pq.push(knnEntry{node: c, d2: c.rect.Dist2Point(it.q)})
		}
	}
	return Item{}, false
}

type knnEntry struct {
	node *node // nil for item entries
	item Item
	d2   float64
}

// knnHeap is a hand-rolled binary min-heap. container/heap would box every
// knnEntry into an interface value on Push — one allocation per touched
// entry — which dominated the kNN allocation profile.
type knnHeap []knnEntry

func (h knnHeap) less(i, j int) bool {
	if h[i].d2 != h[j].d2 {
		return h[i].d2 < h[j].d2
	}
	// Prefer resolving items before nodes at equal distance so results are
	// deterministic; then break ties by id.
	if (h[i].node == nil) != (h[j].node == nil) {
		return h[i].node == nil
	}
	return h[i].item.ID < h[j].item.ID
}

func (h *knnHeap) push(e knnEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *knnHeap) pop() knnEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = knnEntry{} // drop node/item references from the spare slot
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s.less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// checkInvariants validates structural invariants; tests call it via the
// exported CheckInvariants.
func (t *Tree) checkInvariants(n *node, depth int, leafDepth *int, nodes *int) error {
	*nodes++
	if e := n.entries(); e > t.max || (depth > 0 && e < t.min) {
		return fmt.Errorf("rtree: node at depth %d holds %d entries, want %d..%d", depth, e, t.min, t.max)
	}
	if n.leaf() {
		if *leafDepth == -1 {
			*leafDepth = depth
		} else if *leafDepth != depth {
			return fmt.Errorf("rtree: leaves at different depths (%d vs %d)", *leafDepth, depth)
		}
		for _, it := range n.items {
			if !n.rect.Contains(it.P) {
				return fmt.Errorf("rtree: item %d outside leaf rect", it.ID)
			}
		}
		return nil
	}
	for _, c := range n.children {
		if !n.rect.ContainsRect(c.rect) {
			return fmt.Errorf("rtree: child rect escapes parent")
		}
		if err := t.checkInvariants(c, depth+1, leafDepth, nodes); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies the structural invariants of the tree: uniform
// leaf depth, node occupancy between the minimum (root excepted) and the
// fanout, containment of child rectangles, and the incremental node count
// against a full traversal. It is exported for tests and costs a
// full traversal.
func (t *Tree) CheckInvariants() error {
	ld := -1
	nodes := 0
	if err := t.checkInvariants(t.root, 0, &ld, &nodes); err != nil {
		return err
	}
	if nodes != int(t.nodes.Load()) {
		return fmt.Errorf("rtree: node count drifted: counted %d, bookkept %d", nodes, t.nodes.Load())
	}
	return nil
}
