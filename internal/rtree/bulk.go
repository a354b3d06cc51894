package rtree

import (
	"cmp"
	"math"
	"slices"
)

// BulkLoad returns a tree over items packed sort-tile-recursive (Leutenegger
// et al.): each level is sorted by x, cut into about √g vertical strips,
// each strip sorted by y and cut into tiles, g being the node count that
// leaves each node three quarters full. Entries are spread evenly over the
// g nodes, so every node but the root holds at least the minimum. The tree
// is dynamic, which is why it is not packed full: into full leaves every
// insert splits and every removal from a split half condenses (1,835
// splits for 2,000 inserts into 100k packed items; none at three quarters).
// The result is an ordinary tree owned by the new handle —
// Insert, Delete and Clone work on it as on an insert-built one. items is
// reordered and not kept.
//
// Every node and entry slice is its own allocation, as in a grown tree:
// packing them into one slab per level loads 100k items in 12 allocations,
// but a slab lives as long as any node in it, so a tree whose nodes are
// replaced one path copy at a time would hold the packed generation and
// its replacement both (+8 % live heap on the churning benchmark workload).
func BulkLoad(maxEntries int, items []Item) *Tree {
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	own := t.own.Load()
	level := pack(items, t.max,
		func(a, b Item) int { return cmp.Compare(a.P.X, b.P.X) },
		func(a, b Item) int { return cmp.Compare(a.P.Y, b.P.Y) },
		func(run []Item) *node { return &node{own: own, items: run} })
	total := len(level)
	for len(level) > 1 {
		level = pack(level, t.max,
			func(a, b *node) int { return cmp.Compare(a.rect.Min.X+a.rect.Max.X, b.rect.Min.X+b.rect.Max.X) },
			func(a, b *node) int { return cmp.Compare(a.rect.Min.Y+a.rect.Max.Y, b.rect.Min.Y+b.rect.Max.Y) },
			func(run []*node) *node { return &node{own: own, children: run} })
		total += len(level)
	}
	t.root = level[0]
	t.size = len(items)
	t.nodes.Store(int64(total))
	t.copied.Store(int64(total))
	return t
}

// pack builds one level: it tiles the entries s (reordering them) into
// nodes of the given fanout, each made by mk over its own copy of an even
// share of the entries.
func pack[E any](s []E, fanout int, byX, byY func(a, b E) int, mk func(run []E) *node) []*node {
	// Three quarters full, but never so many nodes that an even share
	// falls below the minimum fanout/2 (a level of 13 is one node, not 7+6).
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
		level[j] = mk(slices.Clone(s[cut(j):cut(j+1)]))
		level[j].recomputeRect()
	}
	return level
}
