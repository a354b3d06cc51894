package netvor

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/roadnet"
)

// TableStore remembers, per vertex, the nearest sites a full-network search
// from it reported. They depend on the vertex and the site set only, so the
// scratches sharing a store (an engine's shards) share them, the longest
// table built for a vertex serving shorter requests by its prefix. Tables go
// back to back into one ring of (site, dist) entries that doubles up to
// ⌊2V/3⌋ entries per ring it was made for (8 bytes per network vertex) and,
// once full, is written over from the start. A table is a head entry — the
// vertex; the negated build clock, less one, which no distance looks like —
// then its entries; the tail only moves forward, so a table whose head reads
// as written is whole, and a stale table is rebuilt over itself when its
// slot is long enough. A site mutation stamps with the clock the sites whose
// presence in a table means it may have changed (the one removed; the one
// inserted and its neighbors); a lookup takes a table iff no entry it serves
// was stamped after it was built, and one that ends short of the request,
// holding all its vertex reaches, only if no insert came since. The stamps
// are pruned when the ring wraps, and dropped with every table when they
// outnumber its entries. The store follows one diagram (SearchScratch.Follow)
// and serves and keeps the tables of searches of that diagram only, each
// lookup and put under its mutex, each search outside it. DESIGN.md
// "Edge-anchored validation" has the argument and the bound.
type TableStore struct {
	mu    sync.Mutex
	owner *Diagram
	max   int // entries the ring may grow to

	site []int32
	dist []float64
	tail int
	live map[int32]tableRef // may name tables since written over

	clock, lastInsert, turned uint64 // turned: the clock when tail last wrapped
	touched                   map[int32]uint64

	hits, stale, absent, wraps atomic.Uint64
}

// tableRef is a table's head entry, its length, the entries its slot holds,
// whether the search ran dry.
type tableRef struct {
	at, n, slot int32
	complete    bool
}

// NewTableStore returns an empty store whose ring may grow to ⌊2V/3⌋ entries
// for each of rings, V being the vertices of d's network; one that keeps
// nothing when d is nil.
func NewTableStore(rings int, d *Diagram) *TableStore {
	st := &TableStore{live: map[int32]tableRef{}, touched: map[int32]uint64{}}
	if d != nil {
		st.max = min(rings*(d.g.NumVertices()*2/3), math.MaxInt32) // the reach of a tableRef
	}
	return st
}

// TableStats is a TableStore's ring size and most, its lookups by outcome —
// served; held but stale or short; none held at the diagram searched — and
// the times the ring wrapped.
type TableStats struct {
	Entries, Max               int
	Hits, Stale, Absent, Wraps uint64
}

// Stats returns the store's figures. It is safe for concurrent use.
func (st *TableStore) Stats() TableStats {
	st.mu.Lock()
	entries := len(st.site)
	st.mu.Unlock()
	return TableStats{entries, st.max, st.hits.Load(), st.stale.Load(), st.absent.Load(), st.wraps.Load()}
}

// ShareTables points the scratch at st, which other scratches may share,
// instead of a private store of one ring made at its first table.
func (sc *SearchScratch) ShareTables(st *TableStore) { sc.tables = st }

// Follow moves the scratch's table store on from diagram from to to, a later
// version of its site set, and reports whether it did, which it does only
// when the store follows from. It then calls changes, which reports every
// site mutation in between to stamp — a removal, or an insert with the new
// site's neighbor list, nil when that is not known, which drops every table —
// before it lets go of the store, so that no scratch sharing it looks a table
// up at to before the window is stamped. changes runs under the store's
// mutex: it must only call stamp.
func (sc *SearchScratch) Follow(from, to *Diagram, changes func(stamp func(v int, insert bool, neighbors []int))) bool {
	st := sc.tables
	if st == nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.owner != from {
		return false
	}
	st.owner = to
	changes(st.siteChanged)
	return true
}

// siteChanged stamps one site mutation.
func (st *TableStore) siteChanged(v int, insert bool, neighbors []int) {
	st.clock++
	if insert && neighbors != nil {
		st.lastInsert = st.clock
		for _, s := range neighbors {
			st.touched[int32(s)] = st.clock
		}
	}
	st.touched[int32(v)] = st.clock
	// A ring that wraps prunes the stamps (put); one that does not would keep
	// one for every site ever touched.
	if insert && neighbors == nil || len(st.touched) > len(st.site) {
		st.tail = 0
		clear(st.live)
		clear(st.touched)
	}
}

// lookup appends v's table of m entries onto site and dist when the store
// follows d and holds one it may serve; reads is the stamps it looked at.
func (st *TableStore) lookup(d *Diagram, v, m int, site []int32, dist []float64) (_ []int32, _ []float64, reads int, hit bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.owner == nil {
		st.owner = d
	}
	t, ok := st.live[int32(v)]
	if !ok || st.owner != d || st.site[t.at] != int32(v) || st.dist[t.at] >= 0 {
		st.absent.Add(1)
		return site, dist, 0, false
	}
	n, built := min(int(t.n), m), uint64(-st.dist[t.at])-1
	from := st.site[t.at+1:][:n]
	hit = n == m || t.complete && st.lastInsert <= built
	for ; hit && reads < n; reads++ {
		hit = st.touched[from[reads]] <= built
	}
	if !hit {
		st.stale.Add(1)
		return site, dist, reads, false
	}
	st.hits.Add(1)
	return append(site, from...), append(dist, st.dist[t.at+1:][:n]...), reads, true
}

// put keeps v's table, built by a search of d, if the store still follows d:
// over its predecessor when that is whole and its slot long enough, else at
// the ring's tail, growing the ring while it may and wrapping it once it may
// not; a table longer than the ring is not kept.
func (st *TableStore) put(d *Diagram, v int32, site []int32, dist []float64, complete bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.owner != d {
		return
	}
	// A predecessor still whole is written over when its slot is long enough:
	// the slot was written this turn, below tail, or last turn at or past it,
	// so no later write has reached it, and the fresh clock is no older than
	// the last turn, as every table's below tail is.
	t, ok := st.live[v]
	if !ok || st.site[t.at] != v || st.dist[t.at] >= 0 || len(site) > int(t.slot) {
		need := 1 + len(site)
		for st.tail+need > len(st.site) {
			if st.grow() {
				continue
			}
			if need > len(st.site) {
				return
			}
			// Wrap. Every table still whole was written this turn, below tail:
			// the names of the others go, and the stamps from before the turn
			// began, which no table is old enough to be asked about.
			for u, t := range st.live {
				if int(t.at) >= st.tail || st.site[t.at] != u || st.dist[t.at] >= 0 {
					delete(st.live, u)
				}
			}
			for s, at := range st.touched {
				if at <= st.turned {
					delete(st.touched, s)
				}
			}
			st.turned, st.tail = st.clock, 0
			st.wraps.Add(1)
		}
		t = tableRef{at: int32(st.tail), slot: int32(len(site))}
		st.tail += need
	}
	st.site[t.at], st.dist[t.at] = v, -float64(st.clock+1)
	copy(st.site[t.at+1:], site)
	copy(st.dist[t.at+1:], dist)
	t.n, t.complete = int32(len(site)), complete
	st.live[v] = t
}

// grow doubles the ring — to 1024 entries at least — or takes it to its
// most; false when it is there.
func (st *TableStore) grow() bool {
	size := min(max(2*len(st.site), 1024), st.max)
	if size <= len(st.site) {
		return false
	}
	st.site = append(make([]int32, 0, size), st.site...)[:size]
	st.dist = append(make([]float64, 0, size), st.dist...)[:size]
	return true
}

// AppendVertexTable appends the m nearest sites of vertex v and their network
// distances onto site and dist — AppendKNN from the vertex, fewer than m when
// v reaches fewer — out of the scratch's table store when that follows d and
// holds them; else by a search, whose result the store then keeps. relaxed
// is what the search cost, reads what a lookup did: the invalidation stamps
// it looked at.
func (d *Diagram) AppendVertexTable(v, m int, site []int32, dist []float64, sc *SearchScratch) (_ []int32, _ []float64, relaxed, reads int, hit bool) {
	if sc.tables == nil {
		sc.tables = NewTableStore(1, d)
	}
	start := len(site)
	if site, dist, reads, hit = sc.tables.lookup(d, v, m, site, dist); hit {
		return site, dist, 0, reads, true
	}
	search := d.BeginSearch(roadnet.VertexPosition(v), sc)
	for len(site) < start+m {
		s, dd, r, found := search.Next()
		relaxed += r
		if !found {
			break
		}
		site, dist = append(site, int32(s)), append(dist, dd)
	}
	sc.tables.put(d, int32(v), site[start:], dist[start:], len(site) < start+m)
	return site, dist, relaxed, reads, false
}
