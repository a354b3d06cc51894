// Package rtree is the plain R-tree kNN that ablation A2 measures the
// plane index's Voronoi expansion against: a static tree packed
// sort-tile-recursive (Leutenegger et al.) and searched best first
// (Hjaltason and Samet), every node it expands counted as one page read.
// It is built once and never mutated. It is not on the serving path: the
// plane index has no R-tree and starts cold searches from the
// triangulation's entry grid (see package vortree).
package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// Tree is a packed, immutable R-tree over points.
type Tree struct {
	root *node
	size int
}

// Item is one indexed point with its caller-chosen id.
type Item struct {
	ID int
	P  geom.Point
}

type node struct {
	rect     geom.Rect
	children []*node // nil at leaves
	items    []Item
}

// BulkLoad packs items into a tree of the given fanout (at least 4). Each
// level is sorted by x, cut into about √g vertical strips, each strip
// sorted by y and cut into g tiles in all, g being the node count that
// leaves each node three quarters full — the packing of the dynamic tree
// the plane index used to carry, so A2 measures the same tree. items is
// reordered and not kept.
func BulkLoad(fanout int, items []Item) *Tree {
	fanout = max(fanout, 4)
	t := &Tree{size: len(items)}
	if len(items) == 0 {
		return t
	}
	level := pack(items, fanout,
		func(a, b Item) int { return cmp.Compare(a.P.X, b.P.X) },
		func(a, b Item) int { return cmp.Compare(a.P.Y, b.P.Y) },
		func(run []Item) *node { return &node{items: run} })
	for len(level) > 1 {
		level = pack(level, fanout,
			func(a, b *node) int { return cmp.Compare(a.rect.Min.X+a.rect.Max.X, b.rect.Min.X+b.rect.Max.X) },
			func(a, b *node) int { return cmp.Compare(a.rect.Min.Y+a.rect.Max.Y, b.rect.Min.Y+b.rect.Max.Y) },
			func(run []*node) *node { return &node{children: run} })
	}
	t.root = level[0]
	return t
}

// pack builds one level: it tiles the entries s (reordering them) into
// nodes of the given fanout, each made by mk over its own copy of an even
// share of the entries.
func pack[E any](s []E, fanout int, byX, byY func(a, b E) int, mk func(run []E) *node) []*node {
	// Three quarters full, but never so many nodes that an even share
	// falls below fanout/2 (a level of 13 is one node, not 7+6).
	fill := fanout - fanout/4
	groups := max(1, min((len(s)+fill-1)/fill, len(s)/(fanout/2)))
	// cut(j) is where the j-th of the groups even runs of s starts.
	cut := func(j int) int { return j * len(s) / groups }
	slices.SortFunc(s, byX)
	strips := int(math.Ceil(math.Sqrt(float64(groups))))
	for i := 0; i < strips; i++ {
		slices.SortFunc(s[cut(i*groups/strips):cut((i+1)*groups/strips)], byY)
	}
	level := make([]*node, groups)
	for j := range level {
		n := mk(slices.Clone(s[cut(j):cut(j+1)]))
		if n.children == nil {
			n.rect = geom.Rect{Min: n.items[0].P, Max: n.items[0].P}
			for _, it := range n.items[1:] {
				n.rect = n.rect.ExpandPoint(it.P)
			}
		} else {
			n.rect = n.children[0].rect
			for _, c := range n.children[1:] {
				n.rect = n.rect.Expand(c.rect)
			}
		}
		level[j] = n
	}
	return level
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// KNN returns the k nearest items to q in ascending distance order, ties
// by id, and the number of nodes the search expanded.
func (t *Tree) KNN(q geom.Point, k int) ([]Item, int) {
	if k <= 0 || t.size == 0 {
		return nil, 0
	}
	out := make([]Item, 0, min(k, t.size))
	visits := 0
	pq := entryHeap{{node: t.root, d2: t.root.rect.Dist2Point(q)}}
	for len(pq) > 0 && len(out) < k {
		e := pq.pop()
		if e.node == nil {
			out = append(out, e.item)
			continue
		}
		visits++
		for _, it := range e.node.items {
			pq.push(entry{item: it, d2: q.Dist2(it.P)})
		}
		for _, c := range e.node.children {
			pq.push(entry{node: c, d2: c.rect.Dist2Point(q)})
		}
	}
	return out, visits
}

// entry is a node still to expand, or an item (node nil) still to report.
type entry struct {
	node *node
	item Item
	d2   float64
}

// entryHeap is a binary min-heap of entries: by distance, then items
// before nodes, then by id, so equal distances come out in a fixed order.
type entryHeap []entry

func (h entryHeap) less(i, j int) bool {
	if h[i].d2 != h[j].d2 {
		return h[i].d2 < h[j].d2
	}
	if (h[i].node == nil) != (h[j].node == nil) {
		return h[i].node == nil
	}
	return h[i].item.ID < h[j].item.ID
}

func (h *entryHeap) push(e entry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *entryHeap) pop() entry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
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
