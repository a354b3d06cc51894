package core

import (
	"math"
	"slices"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// edgeAnchor lets a session that stays on one edge answer without a search.
// For the edge (u, v) it is on, it holds the M = ⌊ρk⌋ nearest sites of u and
// of v with their full-network distances. A position at fraction t of the
// edge leaves it only through u or v, so its distance to a site s is
//
//	min(t·w + dU[s], (1−t)·w + dV[s])
//
// and merging the two tables by that value (hitCursor) yields the M nearest
// sites of the position in the order and at the distances a search from it
// reports. With LB = min(t·w + D_M(u), (1−t)·w + D_M(v)), D_M the last
// distance of a full table (+Inf for a short one, which holds every site its
// endpoint reaches), a merged value ≤ LB is exact — the table the site is
// missing from could only offer ≥ LB — and every site outside both tables is
// ≥ LB. The full table behind LB alone supplies M candidates ≤ (LB, id of its
// last entry) while a site it misses ranks after that entry, by distance or,
// at equal distance, by id, the order searches settle in; so the M-th merged
// hit precedes everything the tables miss, ties included. u and v being
// adjacent, the tables are both full or both complete.
//
// The tables depend on the edge and on the sites near it, not on the guard
// set: re-ranks, recomputations and Invalidate keep them, and the
// recomputation on the edge is read from them too. Only site churn touches
// them (judge). The slices keep their
// capacity across drops, so a session owns 2M (int32, float64) pairs and a
// steady-state Update allocates nothing.
type edgeAnchor struct {
	armed bool
	u, v  int     // the anchored edge: end[0] is u's table, end[1] v's
	w     float64 // its weight
	end   [2]anchorTable
}

// anchorTable is the M nearest sites of one endpoint in ascending distance,
// fewer when the endpoint reaches fewer.
type anchorTable struct {
	site []int32
	dist []float64
}

// holds reports whether site s is in either table.
func (a *edgeAnchor) holds(s int) bool {
	return slices.Contains(a.end[0].site, int32(s)) || slices.Contains(a.end[1].site, int32(s))
}

// judge drops an armed anchor when the site op may have changed one of its
// tables, m long when full: an op that could not be resolved, the removal of
// a member — distances from a vertex to the other sites do not depend on
// the site set — and an insert next to a member, or with short tables,
// which hold every site their endpoint reaches and which any insert may
// extend. The new site enters a full table only next to a member: at rank
// j ≥ 2 the owner of the last foreign vertex on the shortest path from the
// endpoint ranks before it, by distance or by the id tie-break of the
// diagram, and is its neighbor; at rank 1 it took the endpoint from the
// table's first entry and their cells meet along the old shortest path.
func (a *edgeAnchor) judge(op *index.Op, m int) {
	switch {
	case !a.armed:
	case op.Conservative, !op.Insert && a.holds(op.ID):
		a.armed = false
	case op.Insert && (op.Neighbors == nil || min(len(a.end[0].site), len(a.end[1].site)) < m || slices.ContainsFunc(op.Neighbors, a.holds)):
		a.armed = false
	}
}

// along returns the fraction of pos from u along the edge (u, v), whichever
// way round pos names it; ok is false when pos is neither on that edge nor at
// one of its endpoints.
func along(u, v int, pos roadnet.Position) (t float64, ok bool) {
	if at, isVertex := pos.AtVertex(); isVertex {
		switch at {
		case u:
			return 0, true
		case v:
			return 1, true
		}
		return 0, false
	}
	switch {
	case pos.U == u && pos.V == v:
		return pos.T, true
	case pos.U == v && pos.V == u:
		return 1 - pos.T, true
	}
	return 0, false
}

// anchorAt brings the anchor to pos, the position reported after prev. An
// armed anchor stays while pos is on its edge. When the session has crossed
// one of the edge's endpoints onto the next edge the anchor follows it: that
// endpoint's table is kept and only the far one is searched. A session
// without an anchor arms on its second consecutive update on an edge. There
// is no cost rule: looking ahead for two more updates on the edge never arms
// a stride, and carrying only when one more update fits on the new edge
// measured worse than always carrying (DESIGN.md).
func (q *NetworkQuery) anchorAt(prev, pos roadnet.Position) {
	a := &q.anchor
	carry := a.armed
	if carry {
		if _, ok := along(a.u, a.v, pos); ok {
			return
		}
	}
	a.armed = false
	if _, atVertex := pos.AtVertex(); atVertex {
		return // an anchor is built from inside an edge only
	}
	near, far := pos.U, pos.V
	if carry {
		if far == a.u || far == a.v {
			near, far = far, near
		}
		if near != a.u && near != a.v {
			return // no endpoint shared with the edge it left
		}
		if near == a.v {
			a.end[0], a.end[1] = a.end[1], a.end[0]
		}
	} else if _, onEdge := along(near, far, prev); !onEdge {
		return // the first update on this edge
	}
	a.u, a.v = near, far
	a.w, _ = q.d.Graph().EdgeWeight(near, far)
	if !carry {
		q.pinEndpoint(&a.end[0], near)
	}
	q.pinEndpoint(&a.end[1], far)
	a.armed = true
}

// pinEndpoint fills one table of the anchor with the M nearest sites of the
// endpoint on the full network: from the scratch's table store, where
// whichever session came through the vertex last, on any scratch sharing it,
// left them, or by the search the store then remembers. A hit is charged the
// invalidation stamps it read, one distance evaluation each.
func (q *NetworkQuery) pinEndpoint(tab *anchorTable, endpoint int) {
	var relaxed, reads int
	var hit bool
	tab.site, tab.dist, relaxed, reads, hit = q.d.AppendVertexTable(endpoint, q.prefetchCap(), tab.site[:0], tab.dist[:0], q.scratch())
	q.m.EdgeRelaxations += relaxed
	q.m.DistanceCalcs += reads
	if hit {
		q.m.AnchorTableHits++
	} else {
		q.m.DijkstraRuns++
		q.m.AnchorBuilds++
	}
}

// hitCursor is what validate and refetch pull sites from, nearest first, for
// one call: a GuardSearch, or, when tab is set, the merge of an anchor's two
// tables, which is wide from the start and reports exact hits only.
type hitCursor struct {
	search netvor.GuardSearch

	tab  *edgeAnchor
	off  [2]float64 // from the position to each endpoint
	at   [2]int     // entries consumed of each table
	lb   float64    // merged values up to here are exact (see edgeAnchor)
	hits int
}

// open starts the hit source of one call at pos: the anchor's tables when
// they cover pos; else a search — the Theorem-2 guard search while there is a
// guard set and pos is on its subnetwork, the full network otherwise.
func (q *NetworkQuery) open(pos roadnet.Position) hitCursor {
	if a := &q.anchor; a.armed {
		if t, ok := along(a.u, a.v, pos); ok {
			c := hitCursor{tab: a, off: [2]float64{t * a.w, (1 - t) * a.w}, lb: math.Inf(1)}
			for e := range a.end {
				if d := a.end[e].dist; len(d) == q.prefetchCap() {
					c.lb = min(c.lb, c.off[e]+d[len(d)-1])
				}
			}
			return c
		}
	}
	q.m.DijkstraRuns++
	if q.init {
		if s, ok := q.d.BeginGuardSearch(pos, q.ids, q.scratch()); ok {
			return hitCursor{search: s}
		}
	}
	return hitCursor{search: q.d.BeginSearch(pos, q.scratch())}
}

// next returns the next nearest site, charging m what it cost: the edges a
// search relaxed, or one distance evaluation per table entry consumed. The
// merge takes the smaller head of the two tables, equal values by site id,
// skips a site the other table has already reported, and ends when the tables
// do or at the first value they cannot certify.
func (c *hitCursor) next(m *metrics.Counters) (site int, ok bool) {
	if c.tab == nil {
		site, _, relaxed, ok := c.search.Next()
		m.EdgeRelaxations += relaxed
		return site, ok
	}
	for {
		e, best, id := -1, 0.0, int32(0)
		for i := range c.tab.end {
			if t := &c.tab.end[i]; c.at[i] < len(t.site) {
				d, s := c.off[i]+t.dist[c.at[i]], t.site[c.at[i]]
				if e < 0 || d < best || (d == best && s < id) {
					e, best, id = i, d, s
				}
			}
		}
		if e < 0 || best > c.lb {
			return 0, false
		}
		c.at[e]++
		m.DistanceCalcs++
		if !slices.Contains(c.tab.end[1-e].site[:c.at[1-e]], id) {
			c.hits++
			return int(id), true
		}
	}
}

// widen is GuardSearch.Widen: how many of the hits so far stand.
func (c *hitCursor) widen() int {
	if c.tab == nil {
		return c.search.Widen()
	}
	return c.hits
}
