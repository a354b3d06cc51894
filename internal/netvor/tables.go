package netvor

import (
	"math"
	"sync/atomic"

	"repro/internal/roadnet"
)

// tableCache remembers, per vertex, the nearest sites a full-network search
// from it reported. They depend on the vertex and the site set only, so all
// callers of a scratch share them, the longest table built for a vertex
// serving shorter requests by its prefix. Tables are written back to back
// into a ring of (site, dist) entries, over the oldest once it is full. The
// ring grows by doubling while its TableBudget grants the entries — the
// engine's, which its shards draw from wherever the load is past each one's
// first 1,024, or a private one of one ring (8 bytes per network vertex) —
// and wraps at the size it has once the budget is spent. A table is a head
// entry — the vertex; the negated build clock, less one, which no distance
// looks like — then its entries; writing only moves forward, so a table whose
// head reads as written is whole. A site mutation stamps with the clock the
// sites whose presence in a table means it may have changed (the one removed;
// the one inserted and its neighbors), and a lookup takes a table iff no
// entry it serves was stamped after the table was built; one that ends short
// of the request holds all its vertex reaches and falls to any insert. The
// stamps are bounded by the ring: pruned when it wraps, and dropped with
// every table when they come to outnumber its entries. The cache follows one
// diagram, which it is moved on from to each later version (Follow), and
// serves callers searching that diagram only. DESIGN.md "Edge-anchored
// validation" has the argument and the budget.
type tableCache struct {
	owner  *Diagram
	budget *TableBudget

	site []int32
	dist []float64
	tail int
	live map[int32]tableRef // may name tables since written over

	clock, lastInsert, turned uint64 // turned: the clock when tail last wrapped
	touched                   map[int32]uint64
}

// tableRef is a table's head entry, its length, whether the search ran dry.
type tableRef struct {
	at, n    int32
	complete bool
}

// TableBudget is the table-ring entries a set of scratches may hold between
// them: a share of ⌊2V/3⌋ a ring for a network of V vertices — 8 bytes per
// vertex, an entry being 12 — times the rings it was made for. A ring draws
// from it only to grow, so each ring keeps its own writer and FIFO eviction,
// and its reads stay on its goroutine; the draw is one atomic counter. What a
// ring has drawn it keeps. The methods are safe for concurrent use.
type TableBudget struct {
	share int // one ring's
	max   int64
	drawn atomic.Int64
}

// NewTableBudget returns a budget of the given number of rings for d's
// network; an empty one when d is nil.
func NewTableBudget(rings int, d *Diagram) *TableBudget {
	b := new(TableBudget)
	if d != nil {
		b.share = d.g.NumVertices() * 2 / 3
		b.max = int64(rings) * int64(b.share)
	}
	return b
}

// Drawn returns the entries the rings have drawn from the budget.
func (b *TableBudget) Drawn() int { return int(b.drawn.Load()) }

// Max returns the entries the rings may draw in all.
func (b *TableBudget) Max() int { return int(b.max) }

// draw takes up to n entries and returns how many it got, 0 once the budget
// is spent.
func (b *TableBudget) draw(n int) int {
	for {
		drawn := b.drawn.Load()
		got := min(int64(n), b.max-drawn)
		if got <= 0 {
			return 0
		}
		if b.drawn.CompareAndSwap(drawn, drawn+got) {
			return int(got)
		}
	}
}

// UseTableBudget makes the scratch's table ring, which must not have any
// entries yet, draw them from b, which other scratches may share, instead of
// a private budget of one ring. The ring takes its first entries at once —
// 1,024, or one share when that is less — so that while no more scratches use
// b than it was made for, each holds a ring, however early the others spend
// the rest.
func (sc *SearchScratch) UseTableBudget(b *TableBudget) {
	sc.tables.budget = b
	sc.tables.grow()
}

// Follow moves the table cache on from diagram from to to, a later version
// of its site set, and reports whether it did, which it does only when the
// cache follows from: the caller then reports every site mutation in between
// (SiteChanged) before it searches again.
func (sc *SearchScratch) Follow(from, to *Diagram) bool {
	c := &sc.tables
	if from == nil || c.owner != from {
		return false
	}
	c.owner = to
	return true
}

// SiteChanged tells the table cache of a site mutation at vertex v: a
// removal, or an insert with the new site's neighbor list — nil when that is
// not known, which drops every table.
func (sc *SearchScratch) SiteChanged(v int, insert bool, neighbors []int) {
	c := &sc.tables
	if c.owner == nil {
		return
	}
	c.clock++
	if insert && neighbors != nil {
		c.lastInsert = c.clock
		for _, s := range neighbors {
			c.touched[int32(s)] = c.clock
		}
	}
	c.touched[int32(v)] = c.clock
	// A ring that wraps prunes the stamps (put); one that does not would keep
	// one for every site ever touched.
	if insert && neighbors == nil || len(c.touched) > len(c.site) {
		c.tail = 0
		clear(c.live)
		clear(c.touched)
	}
}

// put writes v's table at the ring's tail, growing the ring while the budget
// grants entries and wrapping it once it does not; a table longer than the
// ring is not kept.
func (c *tableCache) put(v int32, site []int32, dist []float64, complete bool) {
	need := 1 + len(site)
	for c.tail+need > len(c.site) {
		if c.grow() {
			continue
		}
		if need > len(c.site) {
			return
		}
		// Wrap. Every table still whole was written this turn, below tail:
		// the names of the others go, and the stamps from before the turn
		// began, which no table is old enough to be asked about.
		for u, t := range c.live {
			if int(t.at) >= c.tail || c.site[t.at] != u || c.dist[t.at] >= 0 {
				delete(c.live, u)
			}
		}
		for s, at := range c.touched {
			if at <= c.turned {
				delete(c.touched, s)
			}
		}
		c.turned, c.tail = c.clock, 0
	}
	c.site[c.tail], c.dist[c.tail] = v, -float64(c.clock+1)
	copy(c.site[c.tail+1:], site)
	copy(c.dist[c.tail+1:], dist)
	c.live[v] = tableRef{int32(c.tail), int32(len(site)), complete}
	c.tail += need
}

// grow doubles the ring — to 1024 entries at least, or one share when that is
// less, and MaxInt32 at most, the reach of a tableRef — by what the budget
// grants of that; false when it grants nothing.
func (c *tableCache) grow() bool {
	size := len(c.site)
	got := c.budget.draw(min(max(2*size, min(1024, c.budget.share)), math.MaxInt32) - size)
	if got == 0 {
		return false
	}
	size += got
	c.site = append(make([]int32, 0, size), c.site...)[:size]
	c.dist = append(make([]float64, 0, size), c.dist...)[:size]
	return true
}

// AppendVertexTable appends the m nearest sites of vertex v and their network
// distances onto site and dist — AppendKNN from the vertex, fewer than m when
// v reaches fewer — out of the scratch's table cache when that follows d and
// holds them; else by a search, whose result the cache then keeps. relaxed
// is what the search cost, reads what a lookup did: the invalidation stamps
// it looked at.
func (d *Diagram) AppendVertexTable(v, m int, site []int32, dist []float64, sc *SearchScratch) (_ []int32, _ []float64, relaxed, reads int, hit bool) {
	c := &sc.tables
	if c.owner == nil {
		if c.budget == nil {
			c.budget = NewTableBudget(1, d)
		}
		c.owner = d
		c.live, c.touched = map[int32]tableRef{}, map[int32]uint64{}
	}
	cached := c.owner == d
	if t, ok := c.live[int32(v)]; ok && cached && c.site[t.at] == int32(v) && c.dist[t.at] < 0 {
		n, built := min(int(t.n), m), uint64(-c.dist[t.at])-1
		from := c.site[t.at+1:][:n]
		hit = n == m || t.complete && c.lastInsert <= built
		for ; hit && reads < n; reads++ {
			hit = c.touched[from[reads]] <= built
		}
		if hit {
			return append(site, from...), append(dist, c.dist[t.at+1:][:n]...), 0, reads, true
		}
	}
	start := len(site)
	search := d.BeginSearch(roadnet.VertexPosition(v), sc)
	for len(site) < start+m {
		s, dd, r, found := search.Next()
		relaxed += r
		if !found {
			break
		}
		site, dist = append(site, int32(s)), append(dist, dd)
	}
	if cached {
		c.put(int32(v), site[start:], dist[start:], len(site) < start+m)
	}
	return site, dist, relaxed, reads, false
}
