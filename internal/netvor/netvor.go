// Package netvor implements the network Voronoi diagram used by Section IV
// of the paper: data objects sit on road-network vertices, every network
// vertex is assigned to its nearest object (by network distance), and two
// objects are network Voronoi neighbors when their cells touch. The package
// also serves the Theorem-2 subnetwork — the part of the network covered
// by the Voronoi cells of a set of objects, on which kNN validation can
// run instead of the full graph — as a resumable search filtered by the
// owner labels (GuardSearch) and, for rendering and as that search's test
// oracle, as a materialized graph (Subnetwork). The same search with the
// filter off is the incremental network expansion (INE-style) kNN from
// arbitrary on-edge positions, and a filtered search can drop the filter
// midway (GuardSearch.Widen), so the package has one expansion loop.
//
// The diagram is an online structure with the same publication lifecycle
// as the plane VoR-tree: Insert/Remove mutate the site set incrementally
// (relabeling only the vertices whose ownership actually changes), Branch
// hands out a new mutable version by copy-on-write over the shortest-path
// label pages (freezing the receiver, whose reads stay race-free forever),
// and a branch that is never published is simply dropped. Cell adjacency is
// maintained incrementally through per-pair edge-support counts, so a
// mutation's cost is proportional to the territory it moves, not to the
// network size.
//
// Build, Insert and Remove share one multi-source Dijkstra (Erwig, "The
// graph Voronoi diagram with applications", Networks 2000) over a bucket
// frontier after Dial: distances fall into buckets as wide as the least edge
// weight, so buckets drain in order with no heap and no sort, and Build
// derives the cell adjacency from the settled labels in one pass over the
// edges.
//
// Searches run over the graph's packed CSR with scratch sized by what they
// touch (hashed distances and mark set) and are plain Dijkstra:
// sites cover the map, so no goal-directed bound has anything to prune
// (DESIGN.md records the measurement that removed the ALT landmarks). What
// the diagram stores per network vertex is its label and one bit; neighbor
// lists exist for sites only.
package netvor

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/roadnet"
)

// Errors returned by diagram mutations.
var (
	// ErrFrozen is returned by mutations on a diagram frozen by Branch;
	// a published snapshot stays immutable forever.
	ErrFrozen = errors.New("netvor: diagram frozen by Branch")
	// ErrSiteExists is returned when inserting a vertex that already
	// carries a data object.
	ErrSiteExists = errors.New("netvor: site already exists")
	// ErrUnknownSite is returned when removing a vertex that carries no
	// data object.
	ErrUnknownSite = errors.New("netvor: unknown site")
	// ErrLastSite is returned when removing the only remaining site; the
	// diagram of an empty site set is undefined.
	ErrLastSite = errors.New("netvor: cannot remove the last site")
)

// pageSize is the label-page granularity: Branch copies the page table
// (O(vertices/pageSize)) and mutations copy only the pages whose labels
// they rewrite.
const pageSize = 256

// labelPage holds the owner/dist labels of one run of pageSize vertices, 12
// bytes a vertex in place. Pages are immutable once shared between versions;
// writers copy first.
type labelPage struct {
	owner [pageSize]int32
	dist  [pageSize]float64
}

// adjPageSize is the adjacency-page granularity: small enough that a
// mutation's copy-on-write footprint stays a few KB, large enough that
// Branch's page-table copy stays short.
const adjPageSize = 64

// adjEntry is one site's entry in the adjacency table: its sorted neighbor
// sites and, parallel to them, the number of edges supporting each adjacency
// (the count that lets adjacency update incrementally as territory moves).
// Slices are immutable once installed: every change writes fresh ones, so
// entries shared across versions never change underneath their readers.
type adjEntry struct {
	sites  []int
	counts []int
}

// adjPage holds the adjacency entries of one run of adjPageSize vertices:
// bit i of has says the run's i-th vertex has one, and entries packs those
// in vertex order, so a vertex's entry sits at the rank of its bit. Only a
// site with a neighbor has an entry; every other vertex costs its bit.
type adjPage struct {
	has     uint64
	entries []adjEntry
}

// find returns the rank of vertex v's entry in its page and whether it has one.
func (pg *adjPage) find(v int) (rank int, ok bool) {
	bit := uint64(1) << (v % adjPageSize)
	return bits.OnesCount64(pg.has & (bit - 1)), pg.has&bit != 0
}

// relabel records the owner a vertex had before a mutation took it (-1 for
// a vertex of the cell the mutation dug out, whose labels are reset first).
type relabel struct {
	v, old int32
}

// mutScratch is reusable working memory for diagram mutations: the owner
// frontier, the log of relabelled vertices, and the cell walk's stack and
// seeds. One
// scratch is shared down a Branch lineage (only the unfrozen head mutates,
// and the store serializes mutations), so steady-state site churn allocates
// nothing here. Build uses a frontier of its own, so what this one retains is
// sized by a mutation's territory, never by the network.
type mutScratch struct {
	f         frontier
	relabeled []relabel
	stack     []int32
	seeds     []ownerItem
}

// Diagram is the network Voronoi diagram of a set of sites (vertex ids
// carrying data objects) over a road network.
type Diagram struct {
	g     *roadnet.Graph
	sites []int // sorted site vertex ids; owned by this version

	// Copy-on-write label tables: owner (nearest site of each vertex, -1
	// if unreachable) and dist (distance from each vertex to its owner).
	pages  []*labelPage
	shared []bool // page i is shared with another version; copy before write
	copied int    // pages copied or created through this version

	// Copy-on-write adjacency table, indexed by site vertex id: each
	// site's sorted network Voronoi neighbors plus per-neighbor edge
	// supports. Paged like the label tables so Branch never pays O(sites).
	adj       []*adjPage
	adjShared []bool

	mut *mutScratch // shared down the Branch lineage; see mutScratch

	frozen bool
}

// Build computes the network Voronoi diagram of the given site vertices.
// Ties in vertex ownership break toward the lower site id, which makes the
// diagram deterministic; cells are nonempty because every site owns itself
// (see captures).
func Build(g *roadnet.Graph, sites []int) (*Diagram, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("netvor: no sites")
	}
	n := g.NumVertices()
	d := &Diagram{
		g:     g,
		sites: append([]int(nil), sites...),
	}
	d.initPages(n)
	sort.Ints(d.sites)
	for i, s := range d.sites {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("netvor: site %d out of range", s)
		}
		if i > 0 && d.sites[i-1] == s {
			return nil, fmt.Errorf("netvor: duplicate site %d", s)
		}
	}

	// Multi-source Dijkstra carrying the owning site with each label.
	c := g.CSR()
	var f frontier
	f.reset(c)
	for _, s := range d.sites {
		d.source(&f, s)
	}
	d.settle(c, &f, nil)
	d.buildAdjacency(c)
	return d, nil
}

// buildAdjacency installs the Voronoi adjacency of freshly settled labels:
// two cells touch when some edge has endpoints with different owners (the
// boundary point lies on that edge), and each such edge supports the pair
// once. One pass over the half-edges keys every boundary edge by its (lower,
// higher) owner pair; sorted, each run of equal keys is one adjacency and its
// length the support. Filling both sites' lists in key order leaves each list
// sorted. The lists are capped sub-slices of one array sized by the distinct
// pairs, and each adjacency page's entries one of another: support rewrites
// lists and a page copies before it grows, so no later version writes through
// them.
func (d *Diagram) buildAdjacency(c *roadnet.CSR) {
	n := len(c.Off) - 1
	pairs := make([]uint64, 0, len(c.To)/2)
	for u := range n {
		a, _ := d.label(u)
		if a < 0 {
			continue
		}
		for _, x := range c.To[c.Off[u]:c.Off[u+1]] {
			if b, _ := d.label(int(x)); b > a {
				pairs = append(pairs, uint64(a)<<32|uint64(b))
			}
		}
	}
	slices.Sort(pairs)
	// Compact the runs, their lengths in support, and count each site's
	// neighbors in at (then turned into its list's end offset).
	support := make([]int, 0, len(pairs))
	at := make([]int32, n)
	for i, p := range pairs {
		if i > 0 && p == pairs[i-1] {
			support[len(support)-1]++
			continue
		}
		pairs[len(support)] = p
		support = append(support, 1)
		at[p>>32]++
		at[uint32(p)]++
	}
	pairs = pairs[:len(support)]
	owners, total := 0, int32(0)
	for v, k := range at {
		if k > 0 {
			owners++
		}
		total += k
		at[v] = total - k // start of v's list
	}
	sites := make([]int, total)
	counts := make([]int, total)
	for i, p := range pairs {
		a, b := int(p>>32), int(uint32(p))
		sites[at[a]], counts[at[a]] = b, support[i]
		at[a]++
		sites[at[b]], counts[at[b]] = a, support[i]
		at[b]++
	}
	entries := make([]adjEntry, 0, owners)
	first, lo := 0, int32(0) // the current page's first entry; v's list start
	for v, hi := range at {
		if hi == lo {
			continue
		}
		pg := d.adj[v/adjPageSize]
		if pg.has == 0 {
			first = len(entries)
		}
		entries = append(entries, adjEntry{sites[lo:hi:hi], counts[lo:hi:hi]})
		pg.entries = entries[first:len(entries):len(entries)]
		pg.has |= 1 << (v % adjPageSize)
		lo = hi
	}
}

// captures reports whether the label it would take its vertex from the
// current label (o, dd): it is strictly nearer, or as near and of a lower site
// id. A site's own vertex is never taken from it by a tie, so two sites
// joined by a zero-length path both own themselves — both IsSite, both
// reported by every search — and the higher one's wave is what goes on from
// its vertex: a wave passes only through vertices it owns. That keeps every
// cell connected (a vertex's owner is the owner of one of its shortest-path
// predecessors) and makes the labelling a local fixpoint, the two facts the
// incremental Insert and Remove repair from. Because a label is taken only by
// a better one, a frontier may deliver entries in any order and settle still
// ends at that fixpoint: the order decides how much work is done, not the
// labels.
func captures(it ownerItem, o int, dd float64) bool {
	return it.d < dd || (it.d == dd && int(it.site) < o && o != int(it.v))
}

// source labels site s's own vertex and queues it for settle.
func (d *Diagram) source(f *frontier, s int) {
	d.setLabel(s, s, 0)
	f.push(ownerItem{v: int32(s), d: 0, site: int32(s)})
}

// offer queues it on f when it captures its vertex, and labels the vertex
// at once: the frontier holds the tentative labels, as in Dijkstra's
// algorithm with lazy deletion. log, when set, records the owner it took the
// vertex from.
func (d *Diagram) offer(f *frontier, it ownerItem, log *[]relabel) {
	o, dd := d.label(int(it.v))
	if !captures(it, o, dd) {
		return
	}
	if log != nil {
		*log = append(*log, relabel{v: it.v, old: int32(o)})
	}
	d.setLabel(int(it.v), int(it.site), it.d)
	f.push(it)
}

// settle runs the frontier f to exhaustion: the label-correcting
// multi-source Dijkstra behind Build, Insert and Remove. An entry whose
// vertex still holds its label expands it, offering the label across every
// edge; an entry a better label overtook is skipped. An edge at least as
// heavy as the bucket width relaxes into a later bucket, so a bucket is
// complete before it drains, its vertices hold their final labels and each
// expands once, as under a (distance, site)-ordered heap. Zero-weight and
// lighter-than-width relaxations land in the bucket being drained and may
// take a vertex that already expanded, which then expands again.
func (d *Diagram) settle(c *roadnet.CSR, f *frontier, log *[]relabel) {
	for f.advance() {
		slot := &f.ring[f.cur%ringSize]
		for i := 0; i < len(*slot); i++ {
			it := (*slot)[i]
			if o, dd := d.label(int(it.v)); o != int(it.site) || dd != it.d {
				continue
			}
			for e := c.Off[it.v]; e < c.Off[it.v+1]; e++ {
				d.offer(f, ownerItem{v: c.To[e], d: it.d + c.W[e], site: it.site}, log)
			}
		}
		*slot = (*slot)[:0]
		f.cur++
	}
}

// dig resets the labels of site s's cell to (unreachable, +Inf) and offers,
// for every edge leaving it, the outside endpoint's label carried across —
// the seeds from which settle redistributes the territory. The cell is
// walked from s over s-owned vertices (it is connected, see captures); the
// reset doubles as the visited mark, so no membership set is needed. The
// seeds are offered once the walk is over, so that no label they write is
// taken for an outside one.
func (d *Diagram) dig(c *roadnet.CSR, mut *mutScratch, s int) {
	mut.stack = append(mut.stack[:0], int32(s))
	mut.seeds = mut.seeds[:0]
	d.setLabel(s, -1, math.Inf(1))
	for len(mut.stack) > 0 {
		u := mut.stack[len(mut.stack)-1]
		mut.stack = mut.stack[:len(mut.stack)-1]
		for e := c.Off[u]; e < c.Off[u+1]; e++ {
			x := c.To[e]
			switch xo, xd := d.label(int(x)); xo {
			case s:
				d.setLabel(int(x), -1, math.Inf(1))
				mut.stack = append(mut.stack, x)
			case -1: // dug already (or unreachable from any site)
			default:
				mut.seeds = append(mut.seeds, ownerItem{v: u, d: xd + c.W[e], site: int32(xo)})
			}
		}
	}
	for _, it := range mut.seeds {
		d.offer(&mut.f, it, &mut.relabeled)
	}
}

// rebind moves the adjacency support of every edge with a relabelled
// endpoint from the pair of cells it separated to the pair it separates now.
// dug is the owner of the cell the mutation dug out, which the log records
// as -1.
func (d *Diagram) rebind(c *roadnet.CSR, mut *mutScratch, dug int) {
	// One entry per vertex, the earliest: the owner before the mutation.
	slices.SortStableFunc(mut.relabeled, func(a, b relabel) int { return cmp.Compare(a.v, b.v) })
	log := slices.CompactFunc(mut.relabeled, func(a, b relabel) bool { return a.v == b.v })
	mut.relabeled = log
	before := func(r relabel) int {
		if r.old == -1 {
			return dug
		}
		return int(r.old)
	}
	for _, r := range log {
		was := before(r)
		now, _ := d.label(int(r.v))
		for e := c.Off[r.v]; e < c.Off[r.v+1]; e++ {
			x := c.To[e]
			xNow, _ := d.label(int(x))
			xWas := xNow
			if i, ok := slices.BinarySearchFunc(log, x, func(a relabel, t int32) int { return cmp.Compare(a.v, t) }); ok {
				if x < r.v {
					continue // an edge inside the relabelled territory moves once
				}
				xWas = before(log[i])
			}
			if was != now || xWas != xNow {
				d.decPair(was, xWas)
				d.incPair(now, xNow)
			}
		}
	}
}

// mutSc returns the lineage's mutation scratch, creating it lazily.
func (d *Diagram) mutSc() *mutScratch {
	if d.mut == nil {
		d.mut = &mutScratch{}
	}
	return d.mut
}

// initPages allocates fresh, unshared label pages covering n vertices,
// every label set to (unreachable, +Inf).
func (d *Diagram) initPages(n int) {
	np := (n + pageSize - 1) / pageSize
	d.pages = make([]*labelPage, np)
	d.shared = make([]bool, np)
	for i := range d.pages {
		pg := new(labelPage)
		for j := range pg.owner {
			pg.owner[j] = -1
			pg.dist[j] = math.Inf(1)
		}
		d.pages[i] = pg
	}
	d.copied = np
	na := (n + adjPageSize - 1) / adjPageSize
	d.adj = make([]*adjPage, na)
	d.adjShared = make([]bool, na)
	for i := range d.adj {
		d.adj[i] = &adjPage{}
	}
}

// adjAt returns vertex v's adjacency entry, the empty one when it has none.
func (d *Diagram) adjAt(v int) adjEntry {
	pg := d.adj[v/adjPageSize]
	if i, ok := pg.find(v); ok {
		return pg.entries[i]
	}
	return adjEntry{}
}

// setAdj installs e as vertex v's adjacency entry, copying the page (shallow
// — entry slices stay shared until rewritten) when it is shared with another
// version. An entry that lists no neighbor is removed instead, so the table
// holds what the live sites need and nothing a removed one left behind.
func (d *Diagram) setAdj(v int, e adjEntry) {
	pi := v / adjPageSize
	pg := d.adj[pi]
	if d.adjShared[pi] {
		pg = &adjPage{has: pg.has, entries: slices.Clone(pg.entries)}
		d.adj[pi], d.adjShared[pi] = pg, false
	}
	i, ok := pg.find(v)
	switch bit := uint64(1) << (v % adjPageSize); {
	case len(e.sites) == 0 && ok:
		pg.entries = slices.Delete(pg.entries, i, i+1)
		pg.has &^= bit
	case ok:
		pg.entries[i] = e
	case len(e.sites) != 0:
		pg.entries = slices.Insert(pg.entries, i, e)
		pg.has |= bit
	}
}

// label returns vertex v's (owner, dist).
func (d *Diagram) label(v int) (int, float64) {
	pg, i := d.pages[v/pageSize], uint(v)%pageSize
	return int(pg.owner[i]), pg.dist[i]
}

// setLabel writes vertex v's (owner, dist), copying the page first when it
// is shared with another version.
func (d *Diagram) setLabel(v int, owner int, dist float64) {
	pi := v / pageSize
	if d.shared[pi] {
		pg := *d.pages[pi]
		d.pages[pi] = &pg
		d.shared[pi] = false
		d.copied++
	}
	pg, i := d.pages[pi], uint(v)%pageSize
	pg.owner[i] = int32(owner)
	pg.dist[i] = dist
}

// Branch returns a new mutable version of the diagram by copy-on-write:
// the label page table is copied (O(vertices/pageSize)), pages themselves
// are shared until written, and the site/adjacency tables are copied at
// their own (site-proportional) size. The receiver is frozen — reads stay
// valid and race-free forever, mutations are rejected with ErrFrozen —
// which is exactly the lifecycle of a published index snapshot. The child
// shares no writer state with the parent (the mutation scratch is shared,
// but only the unfrozen head of a lineage ever touches it), so abandoning
// it mid-mutation can never corrupt the published version.
func (d *Diagram) Branch() *Diagram {
	d.frozen = true
	child := &Diagram{
		g:         d.g,
		sites:     append([]int(nil), d.sites...),
		pages:     append([]*labelPage(nil), d.pages...),
		shared:    make([]bool, len(d.pages)),
		adj:       append([]*adjPage(nil), d.adj...),
		adjShared: make([]bool, len(d.adj)),
		mut:       d.mut,
	}
	for i := range child.shared {
		child.shared[i] = true
	}
	for i := range child.adjShared {
		child.adjShared[i] = true
	}
	return child
}

// ShareStats reports the structural-sharing instrumentation of the label
// tables: the pages copied or created through this version since it was
// branched, and the total page count. 1 - copied/total is the fraction of
// shortest-path labels the latest epoch shares with its predecessor.
func (d *Diagram) ShareStats() (copied, total int) { return d.copied, len(d.pages) }

// incPair adds one edge of support between the cells of sites a and b,
// installing the Voronoi adjacency when the first supporting edge appears.
func (d *Diagram) incPair(a, b int) {
	if a == b || a == -1 || b == -1 {
		return
	}
	d.support(a, b, 1)
	d.support(b, a, 1)
}

// decPair removes one edge of support between the cells of sites a and b,
// dropping the adjacency when the last supporting edge goes.
func (d *Diagram) decPair(a, b int) {
	if a == b || a == -1 || b == -1 {
		return
	}
	d.support(a, b, -1)
	d.support(b, a, -1)
}

// support adds delta (+1 or -1) to the number of edges supporting t in s's
// neighbor list: the first installs the adjacency, the last one to go drops
// it. Entry slices are rewritten, never mutated: shared copies held by other
// versions (or captured in mutation logs) never change underneath their
// readers.
func (d *Diagram) support(s, t, delta int) {
	e := d.adjAt(s)
	i, ok := slices.BinarySearch(e.sites, t)
	switch {
	case !ok && delta < 0:
		return
	case !ok:
		e = adjEntry{insertAt(e.sites, i, t), insertAt(e.counts, i, delta)}
	case e.counts[i]+delta == 0:
		e = adjEntry{removeAt(e.sites, i), removeAt(e.counts, i)}
	default:
		e.counts = slices.Clone(e.counts)
		e.counts[i] += delta
	}
	d.setAdj(s, e)
}

// insertAt returns a fresh slice with x inserted at index i.
func insertAt(ns []int, i, x int) []int {
	out := make([]int, 0, len(ns)+1)
	out = append(out, ns[:i]...)
	out = append(out, x)
	return append(out, ns[i:]...)
}

// removeAt returns a fresh slice without the element at index i.
func removeAt(ns []int, i int) []int {
	out := make([]int, 0, len(ns)-1)
	out = append(out, ns[:i]...)
	return append(out, ns[i+1:]...)
}

// Insert adds a data object at vertex v and repairs the diagram
// incrementally: one Dijkstra from v claims exactly the territory the new
// cell wins (plus a frontier ring of failed relaxations), and the
// adjacency supports of the relabeled vertices' incident edges move to the
// new owner. Cost is proportional to the new cell's size, not the network.
func (d *Diagram) Insert(v int) error {
	if d.frozen {
		return ErrFrozen
	}
	if v < 0 || v >= d.g.NumVertices() {
		return fmt.Errorf("netvor: site %d out of range", v)
	}
	if d.IsSite(v) {
		return fmt.Errorf("%w: %d", ErrSiteExists, v)
	}
	c := d.g.CSR()
	mut := d.mutSc()
	mut.f.reset(c)
	mut.relabeled = mut.relabeled[:0]
	o, dd := d.label(v)
	dug := -1
	if dd == 0 && o < v {
		// v lies at distance zero from a site of lower id, which keeps every
		// tie — but whatever that site reached through v is v's now, because
		// a wave passes only through vertices it owns. That territory is
		// somewhere in o's cell: dig it out and share it between the two.
		dug = o
		d.dig(c, mut, o)
		d.source(&mut.f, o)
	}
	mut.relabeled = append(mut.relabeled, relabel{v: int32(v), old: int32(o)})
	d.source(&mut.f, v)
	d.settle(c, &mut.f, &mut.relabeled)
	d.rebind(c, mut, dug)
	d.sites = insertAt(d.sites, sort.SearchInts(d.sites, v), v)
	return nil
}

// Remove deletes the data object at vertex s and repairs the diagram
// incrementally: the orphaned cell is dug out and a multi-source Dijkstra
// seeded from its boundary redistributes the territory among the surviving
// neighbors. Cost is proportional to the removed cell, not the network. The
// repair leaves the hole only when s's vertex stood in the way of a
// lower-id site at distance zero from it: outside labels are otherwise
// already optimal with respect to the surviving sites.
func (d *Diagram) Remove(s int) error {
	if d.frozen {
		return ErrFrozen
	}
	if !d.IsSite(s) {
		return fmt.Errorf("%w: %d", ErrUnknownSite, s)
	}
	if len(d.sites) == 1 {
		return ErrLastSite
	}
	c := d.g.CSR()
	mut := d.mutSc()
	mut.f.reset(c)
	mut.relabeled = mut.relabeled[:0]
	d.dig(c, mut, s)
	d.settle(c, &mut.f, &mut.relabeled)
	d.rebind(c, mut, s)
	if e := d.adjAt(s); len(e.sites) != 0 {
		return fmt.Errorf("netvor: remove %d left dangling adjacency %v", s, e.sites)
	}
	d.sites = removeAt(d.sites, sort.SearchInts(d.sites, s))
	return nil
}

// ownerItem is a Dijkstra label carrying the site that would own the
// vertex if this label wins.
type ownerItem struct {
	d    float64
	v    int32
	site int32
}

// ringSize is the number of buckets in a frontier's ring.
const ringSize = 64

// frontier is settle's queue, a bucket queue after Dial ("Algorithm 360:
// shortest-path forest with topological ordering", CACM 1969): an entry at
// distance d waits in bucket ⌊d/w⌋, buckets drain in index order and each in
// push order, with no sort. The width w is the CSR's least positive weight,
// raised to MaxW/(ringSize-1) when that is larger, so a relaxation from the
// bucket being drained lands at most ringSize-1 buckets on and the buckets
// live in a ring of ringSize slices. An entry pushed past the ring (a seed
// dig carries across from far away) waits in one overflow list that is
// re-based onto the ring when the ring drains, so the frontier's memory is
// the entries it holds, never the distance they span.
type frontier struct {
	w    float64
	cur  int // index of the bucket being drained; no ring entry is below it
	ring [ringSize][]ownerItem
	over []ownerItem // entries at bucket cur+ringSize or beyond
}

// reset empties f for a settle over c, keeping its capacity.
func (f *frontier) reset(c *roadnet.CSR) {
	f.w = max(c.MinW, c.MaxW/(ringSize-1))
	if f.w == 0 {
		f.w = 1 // every weight is zero: one bucket holds every entry
	}
	f.cur = 0
	for i := range f.ring {
		f.ring[i] = f.ring[i][:0]
	}
	f.over = f.over[:0]
}

// bucket returns the index of the bucket an entry at distance d waits in.
func (f *frontier) bucket(d float64) int { return int(d / f.w) }

// push queues it. An entry below the bucket being drained joins that bucket.
func (f *frontier) push(it ownerItem) {
	b := max(f.bucket(it.d), f.cur)
	if b >= f.cur+ringSize {
		f.over = append(f.over, it)
		return
	}
	f.ring[b%ringSize] = append(f.ring[b%ringSize], it)
}

// advance moves cur to the next bucket that holds entries, re-basing the
// overflow onto the ring when the ring has drained: cur moves to the least
// overflow bucket and every entry within ringSize of it joins the ring. It
// reports false when the frontier is empty.
func (f *frontier) advance() bool {
	for {
		for i := range ringSize {
			if len(f.ring[(f.cur+i)%ringSize]) > 0 {
				f.cur += i
				return true
			}
		}
		if len(f.over) == 0 {
			return false
		}
		f.cur = math.MaxInt
		for _, it := range f.over {
			f.cur = min(f.cur, f.bucket(it.d))
		}
		rest := f.over[:0]
		for _, it := range f.over {
			if f.bucket(it.d) < f.cur+ringSize {
				f.push(it)
			} else {
				rest = append(rest, it)
			}
		}
		f.over = rest
	}
}

// Graph returns the underlying road network.
func (d *Diagram) Graph() *roadnet.Graph { return d.g }

// Sites returns the sorted site vertex ids. The slice is shared; callers
// must not modify it.
func (d *Diagram) Sites() []int { return d.sites }

// Len returns the number of data objects (sites); it makes the diagram an
// index.Backend alongside the plane VoR-tree.
func (d *Diagram) Len() int { return len(d.sites) }

// Contains reports whether object id is a site, mirroring the plane-index
// method of the same name.
func (d *Diagram) Contains(id int) bool { return d.IsSite(id) }

// IsSite reports whether vertex v carries a data object. A site always
// owns itself at distance 0, so site membership reads off the label table.
func (d *Diagram) IsSite(v int) bool {
	if v < 0 || v >= d.g.NumVertices() {
		return false
	}
	o, _ := d.label(v)
	return o == v
}

// Owner returns the site owning vertex v and the network distance to it.
func (d *Diagram) Owner(v int) (site int, dist float64) { return d.label(v) }

// Neighbors returns the network Voronoi neighbor set of site s (Definition
// 3 transplanted to road networks), sorted by id. The returned slice is
// immutable — later mutations install fresh lists rather than rewriting it.
func (d *Diagram) Neighbors(s int) ([]int, error) {
	if !d.IsSite(s) {
		return nil, fmt.Errorf("netvor: %d is not a site", s)
	}
	if ns := d.adjAt(s).sites; ns != nil {
		return ns, nil
	}
	return []int{}, nil // an isolated cell has no neighbors, not no entry
}

// AppendNeighbors is Neighbors appending onto dst — the allocation-free
// form mirroring delaunay.Triangulation.AppendNeighbors.
func (d *Diagram) AppendNeighbors(s int, dst []int) ([]int, error) {
	if !d.IsSite(s) {
		return dst, fmt.Errorf("netvor: %d is not a site", s)
	}
	return append(dst, d.adjAt(s).sites...), nil
}

// INS returns the influential neighbor set I(knn) of Definition 4 in the
// network setting: the union of the network Voronoi neighbor sets of the
// sites in knn, minus knn. Sorted by id.
func (d *Diagram) INS(knn []int) ([]int, error) {
	var sc SearchScratch
	return d.AppendINS(knn, nil, &sc)
}

// AppendINS is INS appending onto dst with caller-supplied scratch.
func (d *Diagram) AppendINS(knn []int, dst []int, sc *SearchScratch) ([]int, error) {
	road := &sc.road
	road.MarkBegin()
	for _, s := range knn {
		road.SetMark(int32(s), 1)
	}
	start := len(dst)
	for _, s := range knn {
		if !d.IsSite(s) {
			return dst[:start], fmt.Errorf("netvor: %d is not a site", s)
		}
		for _, u := range d.adjAt(s).sites {
			if road.Mark(int32(u)) == 0 {
				road.SetMark(int32(u), 2)
				dst = append(dst, u)
			}
		}
	}
	sort.Ints(dst[start:])
	return dst, nil
}

// KNN returns the k nearest sites to the given network position in
// ascending network-distance order, by incremental network expansion
// (Dijkstra that stops after k sites are settled).
func (d *Diagram) KNN(pos roadnet.Position, k int) []int {
	ids, _ := d.KNNWithDistances(pos, k)
	return ids
}

// KNNWithDistances is KNN returning the matching network distances too.
func (d *Diagram) KNNWithDistances(pos roadnet.Position, k int) ([]int, []float64) {
	ids, ds, _ := d.KNNWithDistancesCounted(pos, k)
	return ids, ds
}

// KNNWithDistancesCounted is KNNWithDistances additionally returning the
// number of edge relaxations this search performed. The count is the
// search's own: nothing is charged to state shared with other searches.
func (d *Diagram) KNNWithDistancesCounted(pos roadnet.Position, k int) ([]int, []float64, int) {
	var sc SearchScratch
	return d.AppendKNN(pos, k, nil, nil, &sc)
}

// OracleKNNWithDistances is KNNWithDistances under the name the repository
// benchmark's brute-force check calls it by.
func (d *Diagram) OracleKNNWithDistances(pos roadnet.Position, k int) ([]int, []float64) {
	return d.KNNWithDistances(pos, k)
}

// SearchScratch is reusable per-caller working memory for the network
// searches: the search state (frontier heap, hashed tentative distances and
// mark set — roadnet.SearchScratch, sized by the widest search it has run),
// the log of vertices a guard search settled past its ring (see
// GuardSearch.Widen), a traversal stack, and the one thing that outlives a
// call, the store of per-vertex nearest-site tables (see TableStore): the
// engine's, shared by its shards (ShareTables), or else a private one of one
// ring. The zero value is ready to use; a scratch serves any number of
// sequential searches against any diagram version but must not be shared
// across goroutines (the table store may be), and holds one search at a
// time: beginning a search (or AppendINS, InSubnetwork, SubnetworkInto) ends
// the previous one. The serving layer keeps one per shard, which removes
// every per-update allocation from the network kNN path — the road twin of
// vortree.SearchScratch.
type SearchScratch struct {
	road     roadnet.SearchScratch
	resettle []int32
	stack    []int32
	tables   *TableStore
}

// AppendKNN is KNNWithDistancesCounted appending ids onto dst and distances
// onto ds with caller-supplied scratch: a widened search (BeginSearch)
// pulled k times.
func (d *Diagram) AppendKNN(pos roadnet.Position, k int, dst []int, ds []float64, sc *SearchScratch) ([]int, []float64, int) {
	if k <= 0 {
		return dst, ds, 0
	}
	s := d.BeginSearch(pos, sc)
	relaxed := 0
	for need := len(dst) + k; len(dst) < need; {
		site, dist, r, ok := s.Next()
		relaxed += r
		if !ok {
			break
		}
		dst = append(dst, site)
		ds = append(ds, dist)
	}
	return dst, ds, relaxed
}

// Subnetwork is the Theorem-2 search space — the part of the road network
// covered by the Voronoi cells of a chosen site set — materialized as its
// own Graph with vertex id translation maps. Serving never builds one: the
// per-update validation runs GuardSearch, the same subnetwork expressed as
// a filter on the shared CSR. The materialized form is the rendering API
// (svg frames, the CLI, the examples) and the differential oracle the
// filter is tested against.
type Subnetwork struct {
	G      *roadnet.Graph
	ToSub  map[int]int // full-network vertex id -> subnetwork id
	ToFull []int       // subnetwork id -> full-network id
}

// Subnetwork extracts the union of the Voronoi cells of the given sites:
// all vertices owned by one of them plus every edge with at least one
// endpoint inside (boundary edges are kept whole, which keeps the search
// space a superset of the exact cell union and preserves Theorem 2's
// distance guarantee).
func (d *Diagram) Subnetwork(sites []int) *Subnetwork {
	var sc SearchScratch
	return d.SubnetworkInto(sites, nil, &sc)
}

// intern maps full-network vertex v into the subnetwork, creating its
// subnetwork vertex on first sight.
func (s *Subnetwork) intern(d *Diagram, v int32) int {
	if id, ok := s.ToSub[int(v)]; ok {
		return id
	}
	id := s.G.AddVertex(d.g.Point(int(v)))
	s.ToSub[int(v)] = id
	s.ToFull = append(s.ToFull, int(v))
	return id
}

// Mark bits of the SubnetworkInto cell walk.
const (
	snWant    = 1 << 0 // vertex is one of the wanted sites
	snVisited = 1 << 1 // vertex already interned / queued by the walk
)

// SubnetworkInto is Subnetwork reusing a previously returned Subnetwork's
// translation tables (pass nil to allocate fresh ones) and caller-supplied
// scratch; the graph itself is built anew. Instead of scanning every
// network edge, it walks each wanted cell outward from its site (cells are
// connected: every vertex's shortest-path predecessor shares its owner),
// visiting only the extracted region plus its one-edge boundary ring.
// Subnetwork vertex ids are assigned in walk order, so two extractions of
// the same region are equal as graphs but may number vertices differently;
// callers hold no contract on the numbering.
func (d *Diagram) SubnetworkInto(sites []int, sub *Subnetwork, sc *SearchScratch) *Subnetwork {
	if sub == nil {
		sub = &Subnetwork{ToSub: make(map[int]int, len(sites)*8)}
	} else {
		clear(sub.ToSub)
		sub.ToFull = sub.ToFull[:0]
	}
	sub.G = roadnet.NewGraph()
	c := d.g.CSR()
	road := &sc.road
	road.MarkBegin()
	for _, s := range sites {
		road.SetMark(int32(s), snWant)
	}
	stack := sc.stack[:0]
	for _, s := range sites {
		sv := int32(s)
		if road.Mark(sv)&snVisited != 0 {
			continue
		}
		road.SetMark(sv, road.Mark(sv)|snVisited)
		sub.intern(d, sv)
		if o, _ := d.label(s); o != s {
			continue // not actually a site of this diagram; keep the lone vertex
		}
		stack = append(stack, sv)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			su := sub.intern(d, u)
			for e := c.Off[u]; e < c.Off[u+1]; e++ {
				x := c.To[e]
				xo, _ := d.label(int(x))
				inside := xo >= 0 && road.Mark(int32(xo))&snWant != 0
				if inside {
					if road.Mark(x)&snVisited == 0 {
						road.SetMark(x, road.Mark(x)|snVisited)
						stack = append(stack, x)
					}
					if u >= x {
						continue // interior edges added once, from the lower endpoint
					}
				}
				sx := sub.intern(d, x)
				// AddEdgeWeight, not AddEdge: the latter treats weight 0
				// as "use the Euclidean length", which would silently
				// rewrite explicit zero-weight edges.
				if err := sub.G.AddEdgeWeight(su, sx, c.W[e]); err != nil {
					panic(fmt.Sprintf("netvor: subnetwork edge: %v", err))
				}
			}
		}
	}
	sc.stack = stack
	return sub
}

// Translate converts a full-network position into the subnetwork, or
// ok=false when the position's edge is not part of the subnetwork.
func (s *Subnetwork) Translate(pos roadnet.Position) (roadnet.Position, bool) {
	if v, ok := pos.AtVertex(); ok {
		sv, ok := s.ToSub[v]
		if !ok {
			return roadnet.Position{}, false
		}
		return roadnet.VertexPosition(sv), true
	}
	su, ok := s.ToSub[pos.U]
	if !ok {
		return roadnet.Position{}, false
	}
	sv, ok := s.ToSub[pos.V]
	if !ok {
		return roadnet.Position{}, false
	}
	if _, ok := s.G.EdgeWeight(su, sv); !ok {
		return roadnet.Position{}, false
	}
	return roadnet.Position{U: su, V: sv, T: pos.T}, true
}

// KNNSites returns the k nearest of the given sites to pos by plain
// Dijkstra on the materialized subnetwork, with their subnetwork distances
// (full-network vertex ids) and the number of edges scanned from settled
// vertices. It is the oracle of GuardSearch, which must return the same
// sites, the same distances and the same count. Subnetwork distances to
// objects outside the current kNN set may exceed their full-network values,
// so only the set comparison of Theorem 2 is meaningful.
func (s *Subnetwork) KNNSites(pos roadnet.Position, sites []int, k int) ([]int, []float64, int) {
	spos, ok := s.Translate(pos)
	if !ok || k <= 0 {
		return nil, nil, 0
	}
	c := s.G.CSR()
	var road roadnet.SearchScratch
	road.MarkBegin()
	for _, site := range sites {
		if sv, ok := s.ToSub[site]; ok {
			road.SetMark(int32(sv), 1)
		}
	}
	road.Begin()
	for _, src := range spos.Sources(s.G) {
		if road.TryImprove(int32(src.V), src.D) {
			road.Push(src.D, int32(src.V))
		}
	}
	var ids []int
	var ds []float64
	relaxed := 0
	for {
		dd, v, ok := road.Pop()
		if !ok {
			break
		}
		if dd > road.DistAt(v) {
			continue
		}
		if road.Mark(v) != 0 {
			ids = append(ids, s.ToFull[v])
			ds = append(ds, dd)
			if len(ids) == k {
				break
			}
		}
		for e := c.Off[v]; e < c.Off[v+1]; e++ {
			relaxed++
			u := c.To[e]
			if nd := dd + c.W[e]; road.TryImprove(u, nd) {
				road.Push(nd, u)
			}
		}
	}
	return ids, ds, relaxed
}
