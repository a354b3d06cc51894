package netvor

import "repro/internal/roadnet"

// tableCache remembers, per vertex, the nearest sites a full-network search
// from it reported. They depend on the vertex and the site set only, so all
// callers of a scratch share them, the longest table built for a vertex
// serving shorter requests by its prefix. Tables are written back to back
// into a ring of (site, dist) entries bounded at 8 bytes per network vertex
// (twice what the rest of the scratch, roadnet.SearchScratch's slots, keeps
// per vertex, and most of a shard's share of the heap), over the oldest once
// it is full. A table is a head entry — the vertex; the negated
// build clock, less one, which no distance looks like — then its entries;
// writing only moves forward, so a table whose head reads as written is
// whole. A site mutation stamps with the clock the sites whose presence in a
// table means it may have changed (the one removed; the one inserted and its
// neighbors), and a lookup takes a table iff no entry it serves was stamped
// after the table was built; one that ends short of the request holds all its
// vertex reaches and falls to any insert. The cache follows one owner's site
// set, to one epoch, and serves callers at that epoch only. DESIGN.md
// "Edge-anchored validation" has the argument and the budget.
type tableCache struct {
	owner any
	epoch uint64

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

// FollowTo moves the table cache, when it is owner's and behind epoch to, on
// to that epoch and returns the one it was at: the caller then reports every
// site mutation in between (SiteChanged) before it searches again.
func (sc *SearchScratch) FollowTo(owner any, to uint64) (from uint64, behind bool) {
	c := &sc.tables
	if c.owner != owner || c.epoch >= to {
		return 0, false
	}
	from, c.epoch = c.epoch, to
	return from, true
}

// SiteChanged tells the table cache of a site mutation at vertex v: a
// removal, or an insert with the new site's neighbor list — nil when that is
// not known, which drops every table.
func (sc *SearchScratch) SiteChanged(v int, insert bool, neighbors []int) {
	c := &sc.tables
	if c.owner == nil {
		return
	}
	if c.clock++; insert && neighbors == nil {
		c.tail = 0
		clear(c.live)
		clear(c.touched)
		return
	}
	if insert {
		c.lastInsert = c.clock
		for _, s := range neighbors {
			c.touched[int32(s)] = c.clock
		}
	}
	c.touched[int32(v)] = c.clock
}

// put writes v's table at the ring's tail; the ring may grow to bound entries.
func (c *tableCache) put(v int32, site []int32, dist []float64, complete bool, bound int) {
	need := 1 + len(site)
	if need > bound {
		return
	}
	for size := len(c.site); c.tail+need > size; size = len(c.site) {
		if size < bound {
			size = min(max(2*size, 1024), bound)
			c.site = append(make([]int32, 0, size), c.site...)[:size]
			c.dist = append(make([]float64, 0, size), c.dist...)[:size]
			continue
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

// AppendVertexTable appends the m nearest sites of vertex v and their network
// distances onto site and dist — AppendKNN from the vertex, fewer than m when
// v reaches fewer — out of the scratch's table cache when that follows
// (owner, epoch), the site set d is a version of, and holds them; else by a
// search, whose result the cache then keeps. relaxed is what the search cost,
// reads what a lookup did: the invalidation stamps it looked at.
func (d *Diagram) AppendVertexTable(v, m int, owner any, epoch uint64, site []int32, dist []float64, sc *SearchScratch) (_ []int32, _ []float64, relaxed, reads int, hit bool) {
	c := &sc.tables
	if c.owner == nil {
		*c = tableCache{owner: owner, epoch: epoch, live: map[int32]tableRef{}, touched: map[int32]uint64{}}
	}
	cached := c.owner == owner && c.epoch == epoch
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
		c.put(int32(v), site[start:], dist[start:], len(site) < start+m, d.g.NumVertices()*2/3)
	}
	return site, dist, relaxed, reads, false
}
