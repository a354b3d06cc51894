package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// ErrDisconnected is returned when the query position cannot reach k
// objects on the network.
var ErrDisconnected = errors.New("core: query position cannot reach k objects")

// NetworkQuery is the INS-based moving kNN query in road networks
// (Section IV of the paper). The data objects are the sites of a network
// Voronoi diagram; the query object moves along the network and reports a
// position (edge + fraction) at every timestamp.
//
// Validation follows Theorem 2: the kNN set is valid on the full network
// while the k nearest guard objects of R ∪ I(R), ranked by a search confined
// to the subnetwork their Voronoi cells cover, are the kNN set. The
// subnetwork is a filter over the diagram's shared CSR (netvor.GuardSearch),
// not a graph the session owns, and one resumable search per update yields
// every verdict — valid, stale but repairable from R, or R itself invalid —
// and, on the last, widens onto the full network and becomes the
// recomputation. While the session stays on one edge the search is replaced
// by its result: the ⌊ρk⌋ nearest objects of the edge's two endpoints, merged
// at the session's fraction of the edge, are the hits the widened search
// would report (see edgeAnchor), and the same loop takes the same verdicts
// and the recomputation from them.
//
// Like PlaneQuery, a network query resolves its diagram through one of two
// handles: NewNetworkQuery binds it to a raw diagram it may also mutate
// (the single-threaded experiment mode), while NewNetworkQueryPinned pins
// it to the immutable snapshots of an index.Store shared with other
// sessions — every Update then lazily re-pins to the newest snapshot,
// invalidating the client state only when a skipped site mutation could
// disturb its guard cells.
type NetworkQuery struct {
	d   *netvor.Diagram
	k   int
	rho float64
	m   metrics.Counters

	// store and snap are set on a snapshot-pinned query only: snap is the
	// pinned snapshot, released on Close or when re-pinning, and d is its
	// diagram. A raw query (store == nil) owns d and may mutate it.
	store *index.Store
	snap  *index.Snapshot

	sites any // the site set d is a version of, to the scratch's table cache: store, or the raw diagram

	init    bool
	located bool // Update has been called at least once; last is meaningful
	last    roadnet.Position

	// The client state is one id list, as on the plane: guard = R followed
	// by I(R), r and ins are its two halves, and the kNN set is always
	// r[:k]. An Update moves the guard objects it settles to the front of r
	// in settle order, so r[:k] is in ascending network distance as of the
	// last Update and all of r as of the last recomputation or re-rank. The
	// buffer survives Invalidate; slices returned by Update alias it and
	// are rewritten by the next Update/Sync/Refresh — the package's
	// slice-ownership contract.
	guard  []int
	r, ins []int

	// anchor is the search-free state for the edge the session is on (see
	// edgeAnchor); it outlives the guard set and falls to site churn only.
	anchor edgeAnchor

	// sc is the search working memory: the engine's per-shard scratch (see
	// UseScratch), or one the query allocates at its first search. Nothing
	// in it belongs to the session between two calls.
	sc *netvor.SearchScratch
}

// NewNetworkQuery creates an INS MkNN query over a network Voronoi diagram
// the caller owns (and may mutate through InsertSite/RemoveSite).
// Parameters mirror NewPlaneQuery.
func NewNetworkQuery(d *netvor.Diagram, k int, rho float64) (*NetworkQuery, error) {
	if err := validateParams(k, rho); err != nil {
		return nil, err
	}
	if d.Len() < k {
		return nil, fmt.Errorf("core: k = %d exceeds site count %d", k, d.Len())
	}
	return &NetworkQuery{d: d, k: k, rho: rho, sites: d}, nil
}

// NewNetworkQueryPinned creates an INS MkNN query served from a shared
// index store's network backend. The query pins the current snapshot and
// re-pins lazily at each Update, replaying the store's mutation log over
// its guard sets exactly like the plane side; call Close when the session
// ends so old snapshots can be collected.
func NewNetworkQueryPinned(st *index.Store, k int, rho float64) (*NetworkQuery, error) {
	if !st.HasNetwork() {
		return nil, errors.New("core: no road network configured")
	}
	snap := st.Acquire()
	if snap == nil {
		return nil, fmt.Errorf("core: %w", index.ErrClosed)
	}
	q, err := NewNetworkQuery(snap.Network(), k, rho)
	if err != nil {
		snap.Release()
		return nil, err
	}
	q.store, q.snap, q.sites = st, snap, st
	return q, nil
}

// UseScratch makes the query run its network searches through the given
// shared scratch instead of allocating its own. The serving engine passes
// one scratch per shard: a shard's sessions run serially on its worker
// goroutine, so sharing is race-free and what the scratch sizes by the road
// network (4 bytes of slot per vertex, the table cache's ring) is allocated
// once per shard rather than per session. Search state in it is valid only
// inside one call.
func (q *NetworkQuery) UseScratch(sc *netvor.SearchScratch) {
	if sc != nil {
		q.sc = sc
	}
}

// scratch returns the search working memory, allocating the query's own on
// first use when no shared one was supplied.
func (q *NetworkQuery) scratch() *netvor.SearchScratch {
	if q.sc == nil {
		q.sc = new(netvor.SearchScratch)
	}
	return q.sc
}

// knn returns the current kNN set: the first k members of R (nil while the
// client state is invalidated).
func (q *NetworkQuery) knn() []int {
	if len(q.r) == 0 {
		return nil
	}
	return q.r[:q.k]
}

// Name identifies the processor in simulation reports.
func (q *NetworkQuery) Name() string { return "ins-network" }

// K returns the query parameter k.
func (q *NetworkQuery) K() int { return q.k }

// Metrics returns the accumulated cost counters.
func (q *NetworkQuery) Metrics() *metrics.Counters { return &q.m }

// AppendCurrent appends the current kNN set onto dst — the zero-copy
// accessor for callers that own a reusable buffer.
func (q *NetworkQuery) AppendCurrent(dst []int) []int { return append(dst, q.knn()...) }

// Current returns the current kNN set as a fresh copy; see the package
// slice-ownership contract.
func (q *NetworkQuery) Current() []int { return append([]int(nil), q.knn()...) }

// INS returns I(R) as a fresh copy.
func (q *NetworkQuery) INS() []int { return append([]int(nil), q.ins...) }

// Prefetched returns R as a fresh copy.
func (q *NetworkQuery) Prefetched() []int { return append([]int(nil), q.r...) }

// Subnetwork materializes the current Theorem-2 validation subnetwork (nil
// while the client state is invalidated). It is a rendering and debugging
// aid built on demand; Update searches the same region without building it.
func (q *NetworkQuery) Subnetwork() *netvor.Subnetwork {
	if !q.init {
		return nil
	}
	return q.d.Subnetwork(q.guard)
}

// Sync re-pins a snapshot-backed query to the newest published snapshot
// (a no-op for raw-diagram queries and when already current). If any
// network-site mutation between the pinned and the newest epoch can
// disturb the query's guard cells — the new site's cell touches a guard
// member's, the site lands inside the Theorem-2 subnetwork, or a removed
// site participates in (or neighbors) the guard set — the client state is
// invalidated and the next Update recomputes; otherwise the existing state
// carries over unchanged. The edge anchor is judged by every op of the
// window, by its own rule and whether or not a guard set is held. Plane ops
// in the shared log are skipped: they cannot affect a network session. On the
// way out the scratch's table cache is brought to the query's epoch.
func (q *NetworkQuery) Sync() {
	if q.store == nil || q.snap == nil {
		return
	}
	defer q.followTables()
	cur := q.store.Current()
	if cur.Epoch() == q.snap.Epoch() {
		return
	}
	// Pin first, then read the op window up to the pinned epoch, so no
	// mutation can slip between the window and the snapshot.
	next := q.store.Acquire()
	if next == nil {
		return // store closed: keep serving the already-pinned snapshot
	}
	if q.init || q.anchor.armed {
		ops, ok := q.store.OpsSince(q.snap.Epoch(), next.Epoch())
		if !ok { // lagged past the log, and ops is empty: be conservative
			q.Invalidate()
			q.anchor.armed = false
		}
		// Affectedness is evaluated against the still-pinned old snapshot's
		// guard state, where every guard site is live, until nothing is left
		// to judge.
		for i := 0; i < len(ops) && (q.init || q.anchor.armed); i++ {
			affected := false
			switch op := &ops[i]; {
			case !op.Network: // a plane op
			case op.Conservative:
				affected, q.anchor.armed = true, false
			case op.Insert:
				affected = q.AffectedBySiteInsert(op.ID, op.Neighbors)
			default:
				affected = q.AffectedBySiteRemove(op.ID, op.Neighbors)
			}
			if affected {
				q.Invalidate()
			}
		}
	}
	q.snap.Release()
	q.snap = next
	q.d = next.Network()
}

// followTables reports to the scratch's table cache the site mutations from
// the epoch it has followed the store to up to the pinned one — once per epoch
// and scratch, by the first session to get there. A window the log no longer
// covers, like an op it could not resolve, drops every table.
func (q *NetworkQuery) followTables() {
	sc, to := q.scratch(), q.snap.Epoch()
	if from, behind := sc.FollowTo(q.store, to); behind {
		ops, ok := q.store.OpsSince(from, to)
		if !ok {
			sc.SiteChanged(0, true, nil)
		}
		for i := range ops {
			if op := &ops[i]; op.Network {
				sc.SiteChanged(op.ID, op.Insert || op.Conservative, op.Neighbors)
			}
		}
	}
}

// Refresh turns lazy invalidation into eager repair: it re-pins via Sync
// and, when that invalidated the client state (a skipped site mutation
// disturbed the guard cells), immediately recomputes at the last reported
// position instead of waiting for the next location update. recomputed
// reports whether a recomputation ran; the kNN slice aliases internal
// state under the same contract as Update. The serving engine calls it on
// epoch notifications for sessions with push subscribers.
func (q *NetworkQuery) Refresh() (knn []int, recomputed bool, err error) {
	q.Sync()
	if q.init || !q.located {
		return q.knn(), false, nil
	}
	if err := q.recompute(q.last); err != nil {
		return nil, false, err
	}
	return q.knn(), true, nil
}

// Epoch returns the pinned snapshot's epoch (0 for raw-diagram queries).
func (q *NetworkQuery) Epoch() uint64 {
	if q.snap == nil {
		return 0
	}
	return q.snap.Epoch()
}

// Close releases the query's snapshot pin. It is idempotent and a no-op
// for raw-diagram queries; the query must not be used afterwards.
func (q *NetworkQuery) Close() {
	if q.snap != nil {
		q.snap.Release()
		q.snap = nil
	}
}

// Invalidate discards the client-side state (R, I(R) and the kNN set) so the
// next Update performs a full recomputation. The edge anchor does not depend
// on that state and stays: a caller that invalidates because the site set
// changed behind the query must also have reported the change through
// AffectedBySiteInsert or AffectedBySiteRemove.
func (q *NetworkQuery) Invalidate() {
	q.init = false
	q.guard, q.r, q.ins = q.guard[:0], nil, nil
}

// UsesSite reports whether vertex v participates in the query's guard set
// R ∪ I(R); removing such a site invalidates the client state.
func (q *NetworkQuery) UsesSite(v int) bool { return slices.Contains(q.guard, v) }

// AffectedBySiteInsert reports whether a site just inserted at vertex v
// (with its post-insert network Voronoi neighbor list) can change this
// query's prefetched state: it carved territory adjacent to a guard cell
// (any guard member in its neighbor list — capturing territory from a
// guard member always creates that adjacency) or it landed inside the
// Theorem-2 subnetwork, the region every candidate closer than the guard
// radius must occupy. The caller supplies the neighbor list so it is
// looked up once per mutation rather than once per session.
//
// This and AffectedBySiteRemove are how a caller that mutates the diagram
// behind the query reports every site mutation, whether or not a guard set
// is held, because they also judge the edge anchor, and drop it when
// touched, and tell the scratch's table cache, which judges its tables alike
// (for a pinned query, Sync reads it the store's log instead). The new site
// enters an endpoint's table only next to a member: at
// rank j ≥ 2 the owner of the last foreign vertex on the shortest path from
// the endpoint ranks before it, by distance or by the id tie-break of the
// diagram, and is its neighbor; at rank 1 it took the endpoint from the
// table's first entry and their cells meet along the old shortest path. A
// short table holds every site its endpoint reaches and any insert may
// extend it.
func (q *NetworkQuery) AffectedBySiteInsert(v int, neighbors []int) bool {
	if q.store == nil {
		q.scratch().SiteChanged(v, true, neighbors)
	}
	if a := &q.anchor; a.armed && (neighbors == nil || min(len(a.end[0].site), len(a.end[1].site)) < q.prefetchCap() || slices.ContainsFunc(neighbors, a.holds)) {
		a.armed = false
	}
	if !q.init {
		return false
	}
	if neighbors == nil {
		return true // unknown adjacency: be conservative
	}
	return q.intersectsGuard(neighbors) || q.d.InSubnetwork(q.guard, v, q.scratch())
}

// AffectedBySiteRemove reports whether removing the site at vertex v (with
// its pre-removal neighbor list) can change this query's state: the site
// participated in the guard set, or its territory is inherited by a guard
// member (whose cell, and with it the Theorem-2 subnetwork, then grows). The
// edge anchor is dropped exactly when the site is in one of its tables:
// distances from a vertex to the other sites do not depend on the site set.
func (q *NetworkQuery) AffectedBySiteRemove(v int, neighbors []int) bool {
	if q.store == nil {
		q.scratch().SiteChanged(v, false, nil)
	}
	if q.anchor.armed && q.anchor.holds(v) {
		q.anchor.armed = false
	}
	if !q.init {
		return false
	}
	if q.UsesSite(v) {
		return true
	}
	if neighbors == nil {
		return true
	}
	return q.intersectsGuard(neighbors)
}

// intersectsGuard reports whether any of the listed sites is a guard
// member. Both lists are O(k); no map needed.
func (q *NetworkQuery) intersectsGuard(sites []int) bool {
	for _, s := range sites {
		if q.UsesSite(s) {
			return true
		}
	}
	return false
}

// InsertSite adds a data object at vertex v during query maintenance. The
// prefetched state is refreshed only when the new site can affect it (see
// AffectedBySiteInsert). It is only available on raw-diagram queries;
// snapshot-pinned queries return ErrReadOnly (mutations of a shared index
// go through its index.Store).
func (q *NetworkQuery) InsertSite(v int) error {
	if q.store != nil {
		return ErrReadOnly
	}
	if err := q.d.Insert(v); err != nil {
		return err
	}
	nb, err := q.d.Neighbors(v)
	if err != nil {
		nb = nil // conservative
	}
	if q.AffectedBySiteInsert(v, nb) {
		return q.recompute(q.last)
	}
	return nil
}

// RemoveSite deletes the data object at vertex v during query
// maintenance; state is refreshed when the removal can affect it (see
// AffectedBySiteRemove). Raw-diagram queries only.
func (q *NetworkQuery) RemoveSite(v int) error {
	if q.store != nil {
		return ErrReadOnly
	}
	nb, err := q.d.Neighbors(v)
	if err != nil {
		nb = nil
	}
	if err := q.d.Remove(v); err != nil {
		return err
	}
	if q.AffectedBySiteRemove(v, nb) {
		return q.recompute(q.last)
	}
	return nil
}

// prefetchCap is M = ⌊ρk⌋ (at least k): the size of R while the diagram has
// that many sites, and of a full anchor table.
func (q *NetworkQuery) prefetchCap() int { return max(q.k, int(q.rho*float64(q.k))) }

func (q *NetworkQuery) prefetchSize() int { return min(q.prefetchCap(), q.d.Len()) }

// Update processes a location update and returns the current kNN set
// (shared slice; do not modify). A position that is not on the network is
// rejected before anything is counted or changed.
func (q *NetworkQuery) Update(pos roadnet.Position) ([]int, error) {
	q.Sync()
	if err := pos.Validate(q.d.Graph()); err != nil {
		return nil, err
	}
	q.m.Timestamps++
	if q.located {
		q.anchorAt(q.last, pos)
	}
	q.last, q.located = pos, true
	hits, kept := q.open(pos), 0
	if q.init {
		q.m.Validations++
		var valid bool
		if kept, valid = q.validate(&hits); valid {
			if hits.tab != nil {
				q.m.AnchoredValidations++
			}
			return q.knn(), nil
		}
	}
	if err := q.refetch(&hits, kept); err != nil {
		return nil, err
	}
	return q.knn(), nil
}

// validate runs the one pass of an Update over its hits — guard objects
// pulled from the Theorem-2 subnetwork in ascending distance, or the nearest
// sites outright when the edge anchor or a position off the subnetwork
// supplies them, which by Theorem 2 decide alike — and each verdict is taken
// at the first hit that decides it. The kNN set is valid once k hits have
// all been kNN members. The first hit outside the kNN set makes it stale
// and the same search goes on to |R| hits: if they are all members of R,
// R is still the valid prefetch set, its subnetwork distances are exact and
// the new kNN set is its k nearest — update cases (i)/(ii), composed
// locally. The first hit outside R, or running out of subnetwork, proves R
// invalid. validate then reports false and leaves the hits widened onto the
// full network, with the number of leading guard entries that are already
// the nearest sites in order, for refetch to go on from.
//
// Hit i is swapped to r[i], so the members still to come are r[i:] and the
// verdicts read off where a hit is found: at or beyond k while no hit has
// been, it is not a kNN member (until then every swap stays inside r[:k],
// which keeps that prefix the kNN set); not in r[i:] at all, it is not in R.
func (q *NetworkQuery) validate(hits *hitCursor) (kept int, valid bool) {
	stale := false
	for i := range q.r {
		site, found := hits.next(&q.m)
		j := -1
		if found {
			j = slices.Index(q.r[i:], site)
		}
		if !stale && (j < 0 || i+j >= q.k) {
			stale = true
			q.m.Invalidations++
		}
		if j < 0 {
			// The hits before this one sit in r[:i] in settle order. Those
			// settled before the ring are the nearest sites outright, and
			// when all i are, so is the hit that failed (never when the
			// hits ran out: widen counts hits, and there were only i).
			if kept = hits.widen(); kept > i {
				q.guard[i] = site
			}
			return kept, false
		}
		q.r[i], q.r[i+j] = q.r[i+j], q.r[i]
		if !stale && i == q.k-1 {
			return 0, true // k hits, all of them kNN members
		}
	}
	return 0, true // |R| hits, all of them members of R, now in rank order
}

// recompute fetches R and I(R) from scratch at pos, for the cases that have
// no validation to continue: from the anchor's tables when they cover pos,
// else from a search begun on the full network. It never arms an anchor.
func (q *NetworkQuery) recompute(pos roadnet.Position) error {
	q.Invalidate()
	hits := q.open(pos)
	return q.refetch(&hits, 0)
}

// refetch rebuilds R and I(R) from full-network hits: guard[:kept] are the
// first kept of them, already in place, and the rest of R is pulled. A
// failure leaves the query invalidated: the pulls have already overwritten
// the buffer the old state lived in.
func (q *NetworkQuery) refetch(hits *hitCursor, kept int) error {
	m := q.prefetchSize()
	guard := q.guard[:min(kept, m)]
	q.Invalidate()
	if q.d.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds site count %d", q.k, q.d.Len())
	}
	q.m.Recomputations++
	for len(guard) < m {
		site, ok := hits.next(&q.m)
		if !ok {
			break
		}
		guard = append(guard, site)
	}
	nR := len(guard)
	if nR < q.k {
		return fmt.Errorf("%w: found %d of %d", ErrDisconnected, nR, q.k)
	}
	guard, err := q.d.AppendINS(guard, guard, q.scratch())
	if err != nil {
		return fmt.Errorf("core: network INS: %w", err)
	}
	q.guard, q.r, q.ins = guard, guard[:nR], guard[nR:]
	q.init = true
	q.m.ObjectsShipped += len(guard)
	return nil
}
