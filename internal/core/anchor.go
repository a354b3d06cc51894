package core

import (
	"math"
	"slices"

	"repro/internal/roadnet"
)

// edgeAnchor lets a session that stays on one edge validate without a
// search. For the edge (u, v) it is on, it holds the k nearest guard sites of
// u and of v with their distances in the Theorem-2 subnetwork of the current
// guard set. A position at fraction t of the edge reaches the subnetwork only
// through u or v, so its distance to a guard site g is
//
//	min(t·w + dU[g], (1−t)·w + dV[g])
//
// and three facts make the two tables decide "valid" exactly for any t. The k
// nearest guard sites of the position lie in top-k(u) ∪ top-k(v): a site
// reached through u that is not among u's k nearest has k sites before it.
// With LB = min(t·w + D_k(u), (1−t)·w + D_k(v)), D_k the last distance of a
// full table (+Inf for a short one, which holds every site its endpoint
// reaches), a candidate whose value is ≤ LB is exact — the table it is
// missing from could only offer ≥ LB — and every site outside both tables is
// ≥ LB. And the k-th smallest candidate is always ≤ LB, each full table
// supplying k candidates within its own bound.
//
// The tables depend on the edge and on the guard set as a set, nothing else:
// a re-rank keeps them, a non-invalidating Sync keeps them (the guard cells,
// hence the subnetwork, are unchanged by construction of AffectedBySite*),
// Invalidate — and with it every recomputation — drops them. The slices keep
// their capacity across drops, so an armed session owns 2k (int32, float64)
// pairs and a steady-state anchored Update allocates nothing.
type edgeAnchor struct {
	armed bool
	u, v  int     // the anchored edge: end[0] is u's table, end[1] v's
	w     float64 // its weight
	end   [2]anchorTable
}

// anchorTable is the k nearest guard sites of one endpoint in ascending
// subnetwork distance, fewer when the endpoint reaches fewer.
type anchorTable struct {
	site []int32
	dist []float64
}

// armAhead is the arming cost rule. A fresh anchor costs two searches and
// each later valid update on the edge saves one, so a session arms when the
// step it just took says at least two more updates will land before the edge
// ends. Following the session across an endpoint needs no rule: it costs the
// one search the validation would have cost.
const armAhead = 2

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

// anchorAt brings the anchor to pos, the position reported after prev, and
// returns pos's fraction along the anchored edge; ok is false when no anchor
// covers pos. An armed anchor serves every position on its edge. When the
// session has crossed one of the edge's endpoints onto the next edge the
// anchor follows it: that endpoint's table is kept and only the far one is
// searched. A session without an anchor arms on its second consecutive update
// on an edge, if the cost rule says so.
func (q *NetworkQuery) anchorAt(prev, pos roadnet.Position) (t float64, ok bool) {
	a := &q.anchor
	if a.armed {
		if t, ok := along(a.u, a.v, pos); ok {
			return t, true
		}
	}
	carry := a.armed
	a.armed = false
	if _, atVertex := pos.AtVertex(); atVertex {
		return 0, false // an anchor is built from inside an edge only
	}
	near, far, t := pos.U, pos.V, pos.T
	if carry {
		if far == a.u || far == a.v {
			near, far, t = far, near, 1-t
		}
		if near != a.u && near != a.v {
			return 0, false // no endpoint shared with the edge it left
		}
	} else {
		tp, onEdge := along(near, far, prev)
		if !onEdge {
			return 0, false // the first update on this edge
		}
		ahead := 1 - t
		if tp > t {
			ahead = t
		}
		if ahead < armAhead*math.Abs(t-tp) {
			return 0, false
		}
	}
	// The tables mean something only on an edge of the subnetwork, one with an
	// interior endpoint; beginning the validation search from inside the edge
	// decides exactly that, and no hit is pulled.
	if _, on := q.d.BeginGuardSearch(pos, q.guard, q.scratch()); !on {
		return 0, false
	}
	if carry && near == a.v {
		a.end[0], a.end[1] = a.end[1], a.end[0]
	}
	a.u, a.v = near, far
	a.w, _ = q.d.Graph().EdgeWeight(near, far)
	a.armed = (carry || q.pinEndpoint(&a.end[0], near)) && q.pinEndpoint(&a.end[1], far)
	return t, a.armed
}

// pinEndpoint fills one table of the anchor: a guard search from the
// endpoint, pulled up to k hits.
func (q *NetworkQuery) pinEndpoint(tab *anchorTable, endpoint int) bool {
	tab.site, tab.dist = tab.site[:0], tab.dist[:0]
	search, ok := q.d.BeginGuardSearch(roadnet.VertexPosition(endpoint), q.guard, q.scratch())
	if !ok {
		return false
	}
	q.m.DijkstraRuns++
	q.m.AnchorBuilds++
	for len(tab.site) < q.k {
		site, dist, relaxed, found := search.Next()
		q.m.EdgeRelaxations += relaxed
		if !found {
			break
		}
		tab.site = append(tab.site, int32(site))
		tab.dist = append(tab.dist, dist)
	}
	return true
}

// anchoredValid is the validation of an Update at fraction t of the anchored
// edge, without a search: it reports whether the tables certify that the kNN
// set is still the k nearest guard sites, and then leaves r[:k] in ascending
// distance as validate would. Anything else — a closer non-member, a member
// the tables miss or cannot place exactly — is for validate to find out; the
// anchor has changed nothing. Equal distances rank by site id, the order in
// which the search settles them.
func (q *NetworkQuery) anchoredValid(t float64) bool {
	a, k := &q.anchor, q.k
	knn := q.r[:k]
	off := [2]float64{t * a.w, (1 - t) * a.w}
	inf := math.Inf(1)
	val := q.scratch().Floats(k)
	for i := range val {
		val[i] = inf
	}
	// One pass over the tables: each member's distance is the smaller of its
	// two entries, and the nearest non-member entry is all that matters of
	// the rest.
	lb, out, outSite := inf, inf, int32(0)
	for e := range a.end {
		tab := &a.end[e]
		q.m.DistanceCalcs += len(tab.site)
		if len(tab.site) == k {
			lb = min(lb, off[e]+tab.dist[k-1])
		}
		for j, s := range tab.site {
			d := off[e] + tab.dist[j]
			if i := slices.Index(knn, int(s)); i >= 0 {
				val[i] = min(val[i], d)
			} else if d < out || (d == out && s < outSite) {
				out, outSite = d, s
			}
		}
	}
	for i, d := range val {
		if d > lb || d == inf {
			return false // not placed exactly
		}
		if d > out || (d == out && int32(knn[i]) > outSite) {
			return false // a non-member settles first
		}
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && (val[j] < val[j-1] || (val[j] == val[j-1] && knn[j] < knn[j-1])); j-- {
			val[j], val[j-1] = val[j-1], val[j]
			knn[j], knn[j-1] = knn[j-1], knn[j]
		}
	}
	return true
}
