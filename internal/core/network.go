package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/index"
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
// An Update moves the guard objects it settles to the front of R in settle
// order, so the kNN set R[:k] is in ascending network distance as of the
// last Update and all of R as of the last recomputation or re-rank. Like
// PlaneQuery, it reads the diagram it was created over until Advance moves
// it to a later snapshot's.
type NetworkQuery struct {
	session[roadnet.Position, netvor.SearchScratch]

	d *netvor.Diagram // the diagram the query reads

	// anchor is the search-free state for the edge the session is on (see
	// edgeAnchor); it outlives the guard set and falls to site churn only.
	anchor edgeAnchor
}

// NewNetworkQuery creates an INS MkNN query over a network Voronoi diagram,
// which it reads until Advance moves it on. Parameters mirror
// NewPlaneQuery.
func NewNetworkQuery(d *netvor.Diagram, k int, rho float64) (*NetworkQuery, error) {
	s, err := newSession[roadnet.Position, netvor.SearchScratch](k, rho, true)
	if err != nil {
		return nil, err
	}
	if d.Len() < k {
		return nil, fmt.Errorf("core: k = %d exceeds site count %d", k, d.Len())
	}
	return &NetworkQuery{session: s, d: d}, nil
}

// Name identifies the processor in simulation reports.
func (q *NetworkQuery) Name() string { return "ins-network" }

// Subnetwork materializes the current Theorem-2 validation subnetwork (nil
// while the client state is invalidated). It is a rendering and debugging
// aid built on demand; Update searches the same region without building it.
func (q *NetworkQuery) Subnetwork() *netvor.Subnetwork {
	if !q.init {
		return nil
	}
	return q.d.Subnetwork(q.ids)
}

// Advance moves the query to snapshot next like PlaneQuery.Advance,
// invalidating the client state only when a skipped site mutation can
// disturb its guard cells: the new site's cell touches a guard member's, the
// site lands inside the Theorem-2 subnetwork, or a removed site is in (or
// neighbors) the guard set. The edge anchor is judged by its own rule, and
// the scratch's table store is brought along (FollowTables).
func (q *NetworkQuery) Advance(next *index.Snapshot, ops []index.Op, covered bool) {
	q.advance(q, next, ops, covered)
}

// Refresh recomputes an invalidated query at its last reported position at
// once; recomputed reports whether it did. The kNN slice aliases internal
// state under the same contract as Update.
func (q *NetworkQuery) Refresh() (knn []int, recomputed bool, err error) { return q.refresh(q) }

// affects judges one site op against the diagram the query still reads,
// where every guard site is live. The edge anchor is judged first, by its
// own rule and whether or not a guard set is held (edgeAnchor.judge). An
// insert affects the guard set when it carved territory adjacent to a guard
// cell — any guard member in its neighbor list; capturing territory from a
// guard member always creates that adjacency — or landed inside the
// Theorem-2 subnetwork, the region every candidate closer than the guard
// radius must occupy. A removal affects it when the site is a guard member
// or its territory is inherited by one, whose cell, and with it the
// subnetwork, then grows. An unknown neighbor list affects it.
func (q *NetworkQuery) affects(op *index.Op) bool {
	q.anchor.judge(op, q.prefetchCap())
	switch {
	case !q.init:
		return false
	case op.Neighbors == nil, !op.Insert && slices.Contains(q.ids, op.ID), q.intersectsGuard(op.Neighbors):
		return true
	}
	return op.Insert && q.d.InSubnetwork(q.ids, op.ID, q.scratch())
}

// intersectsGuard reports whether any of the listed sites is a guard
// member. Both lists are O(k); no map needed.
func (q *NetworkQuery) intersectsGuard(sites []int) bool {
	for _, s := range sites {
		if slices.Contains(q.ids, s) {
			return true
		}
	}
	return false
}

func (q *NetworkQuery) read(next *index.Snapshot, ops []index.Op, covered bool) {
	if q.sc != nil {
		FollowTables(q.sc, q.d, next.Network(), ops, covered)
	}
	q.d = next.Network()
}

// FollowTables moves the table store of scratch sc from diagram from on to
// to, a later version of its site set, and hands it the site ops in between,
// which it stamps before any scratch sharing it can look up at to; a window
// the store's log no longer covers, like an op it could not resolve, drops
// every table. It does nothing unless the store follows from, so a store is
// fed each window once, by whoever advances it first — a serving engine's
// shard, which keeps its scratch on the snapshot it pins, or a query on a
// scratch of its own — and the others find it moved.
func FollowTables(sc *netvor.SearchScratch, from, to *netvor.Diagram, ops []index.Op, covered bool) {
	if from == to {
		return
	}
	sc.Follow(from, to, func(stamp func(int, bool, []int)) {
		if !covered {
			stamp(0, true, nil)
			return
		}
		for i := range ops {
			if op := &ops[i]; op.Network {
				stamp(op.ID, op.Insert || op.Conservative, op.Neighbors)
			}
		}
	})
}

func (q *NetworkQuery) prefetchSize() int { return min(q.prefetchCap(), q.d.Len()) }

// Update processes a location update and returns the current kNN set
// (shared slice; do not modify). A position that is not on the network is
// rejected before anything is counted or changed.
func (q *NetworkQuery) Update(pos roadnet.Position) ([]int, error) {
	if err := pos.Validate(q.d.Graph()); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidPosition, err)
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
	r, stale := q.ids[:q.nR], false
	for i := range r {
		site, found := hits.next(&q.m)
		j := -1
		if found {
			j = slices.Index(r[i:], site)
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
				r[i] = site
			}
			return kept, false
		}
		r[i], r[i+j] = r[i+j], r[i]
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

// refetch rebuilds R and I(R) from full-network hits: ids[:kept] are the
// first kept of them, already in place, and the rest of R is pulled. A
// failure leaves the query invalidated: the pulls have already overwritten
// the buffer the old state lived in.
func (q *NetworkQuery) refetch(hits *hitCursor, kept int) error {
	m := q.prefetchSize()
	ids := q.ids[:min(kept, m)]
	q.Invalidate()
	if q.d.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds site count %d", q.k, q.d.Len())
	}
	q.m.Recomputations++
	for len(ids) < m {
		site, ok := hits.next(&q.m)
		if !ok {
			break
		}
		ids = append(ids, site)
	}
	nR := len(ids)
	if nR < q.k {
		return fmt.Errorf("%w: found %d of %d", ErrDisconnected, nR, q.k)
	}
	ids, err := q.d.AppendINS(ids, ids, q.scratch())
	if err != nil {
		return fmt.Errorf("core: network INS: %w", err)
	}
	q.ids, q.nR = ids, nR
	q.init = true
	q.m.ObjectsShipped += len(ids)
	return nil
}
