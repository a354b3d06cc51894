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
// recomputation. In front of that search sits the edge anchor: while the
// session stays on one edge, the k nearest guard objects of the edge's two
// endpoints certify "valid" without a search (see edgeAnchor), and hand over
// to the search whenever they cannot.
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

	// anchor is the search-free validation state for the edge the session is
	// on (see edgeAnchor); it is valid for the current guard set only.
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
	return &NetworkQuery{d: d, k: k, rho: rho}, nil
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
	q.store, q.snap = st, snap
	return q, nil
}

// UseScratch makes the query run its network searches through the given
// shared scratch instead of allocating its own. The serving engine passes
// one scratch per shard: a shard's sessions run serially on its worker
// goroutine, so sharing is race-free and the scratch's dense per-vertex
// arrays (sized by the road network) are allocated once per shard rather
// than per session. Search state in it is valid only inside one call.
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
// carries over unchanged. Plane ops in the shared log are skipped: they
// cannot affect a network session.
func (q *NetworkQuery) Sync() {
	if q.store == nil || q.snap == nil {
		return
	}
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
	invalidate := false
	if q.init {
		ops, ok := q.store.OpsSince(q.snap.Epoch(), next.Epoch())
		if !ok {
			invalidate = true // lagged past the log: be conservative
		} else {
			for _, op := range ops {
				if !op.Network {
					continue
				}
				// Affectedness is evaluated against the still-pinned old
				// snapshot's guard state, where every guard site is live.
				switch {
				case op.Conservative:
					invalidate = true
				case op.Insert:
					invalidate = q.AffectedBySiteInsert(op.ID, op.Neighbors)
				default:
					invalidate = q.AffectedBySiteRemove(op.ID, op.Neighbors)
				}
				if invalidate {
					break
				}
			}
		}
	}
	q.snap.Release()
	q.snap = next
	q.d = next.Network()
	if invalidate {
		q.Invalidate()
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

// Invalidate discards the client-side state (R, I(R), the kNN set and the
// edge anchor built against them) so the next Update performs a full
// recomputation.
func (q *NetworkQuery) Invalidate() {
	q.init = false
	q.anchor.armed = false
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
func (q *NetworkQuery) AffectedBySiteInsert(v int, neighbors []int) bool {
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
// member (whose cell, and with it the Theorem-2 subnetwork, then grows).
func (q *NetworkQuery) AffectedBySiteRemove(v int, neighbors []int) bool {
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
	if !q.init {
		return nil
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
	if !q.init {
		return nil
	}
	if q.AffectedBySiteRemove(v, nb) {
		return q.recompute(q.last)
	}
	return nil
}

func (q *NetworkQuery) prefetchSize() int {
	m := int(q.rho * float64(q.k))
	if m < q.k {
		m = q.k
	}
	if n := q.d.Len(); m > n {
		m = n
	}
	return m
}

// Update processes a location update and returns the current kNN set
// (shared slice; do not modify). A position that is not on the network is
// rejected before anything is counted or changed.
func (q *NetworkQuery) Update(pos roadnet.Position) ([]int, error) {
	q.Sync()
	if err := pos.Validate(q.d.Graph()); err != nil {
		return nil, err
	}
	q.m.Timestamps++
	prev := q.last
	q.last = pos
	q.located = true
	if !q.init {
		if err := q.recompute(pos); err != nil {
			return nil, err
		}
		return q.knn(), nil
	}

	q.m.Validations++
	if t, ok := q.anchorAt(prev, pos); ok && q.anchoredValid(t) {
		q.m.AnchoredValidations++
		return q.knn(), nil
	}
	search, kept, valid := q.validate(pos)
	if valid {
		return q.knn(), nil
	}
	if err := q.refetch(&search, kept); err != nil {
		return nil, err
	}
	return q.knn(), nil
}

// validate runs the one search of an Update: guard objects are pulled from
// the Theorem-2 subnetwork in ascending distance and each verdict is taken
// at the first hit that decides it. The kNN set is valid once k hits have
// all been kNN members. The first hit outside the kNN set makes it stale
// and the same search goes on to |R| hits: if they are all members of R,
// R is still the valid prefetch set, its subnetwork distances are exact and
// the new kNN set is its k nearest — update cases (i)/(ii), composed
// locally. The first hit outside R, or running out of subnetwork, proves R
// invalid. validate then reports false and hands the search back widened
// onto the full network, with the number of leading guard entries that are
// already the nearest sites in order, for refetch to go on from.
//
// Hit i is swapped to r[i], so the members still to come are r[i:] and the
// verdicts read off where a hit is found: at or beyond k while no hit has
// been, it is not a kNN member (until then every swap stays inside r[:k],
// which keeps that prefix the kNN set); not in r[i:] at all, it is not in R.
func (q *NetworkQuery) validate(pos roadnet.Position) (search netvor.GuardSearch, kept int, valid bool) {
	search, ok := q.d.BeginGuardSearch(pos, q.guard, q.scratch())
	q.m.DijkstraRuns++
	if !ok {
		q.m.Invalidations++
		return q.d.BeginSearch(pos, q.scratch()), 0, false
	}
	stale := false
	for i := range q.r {
		site, _, relaxed, found := search.Next()
		q.m.EdgeRelaxations += relaxed
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
			// subnetwork ran out: exact counts hits, and there were only i).
			if kept = search.Widen(); kept > i {
				q.guard[i] = site
			}
			return search, kept, false
		}
		q.r[i], q.r[i+j] = q.r[i+j], q.r[i]
		if !stale && i == q.k-1 {
			return search, 0, true // k hits, all of them kNN members
		}
	}
	return search, 0, true // |R| hits, all of them members of R, now in rank order
}

// recompute fetches R and I(R) from scratch: a search begun on the full
// network at pos, for the cases that have no validation search to continue.
func (q *NetworkQuery) recompute(pos roadnet.Position) error {
	search := q.d.BeginSearch(pos, q.scratch())
	q.m.DijkstraRuns++
	return q.refetch(&search, 0)
}

// refetch rebuilds R and I(R) from a full-network search: guard[:kept] are
// its first kept hits, already in place, and the rest of R is pulled from
// it. A failure leaves the query invalidated: the pulls have already
// overwritten the buffer the old state lived in.
func (q *NetworkQuery) refetch(search *netvor.GuardSearch, kept int) error {
	m := q.prefetchSize()
	guard := q.guard[:min(kept, m)]
	q.Invalidate()
	if q.d.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds site count %d", q.k, q.d.Len())
	}
	q.m.Recomputations++
	for len(guard) < m {
		site, _, relaxed, ok := search.Next()
		q.m.EdgeRelaxations += relaxed
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
