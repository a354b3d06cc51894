package netvor

import "repro/internal/roadnet"

// GuardSearch is the per-update validation search of Theorem 2: an
// incremental network expansion from the query position that is confined to
// the subnetwork covered by the Voronoi cells of a guard set R ∪ I(R) and
// reports the guard sites it settles, nearest first.
//
// The subnetwork is never built. It is a filter over the diagram's
// full-network CSR: with the guard sites stamped in the scratch's mark set,
// a vertex is interior iff its owner is marked (one label read), the ring
// is every other vertex one edge away from an interior one, and an edge
// belongs to the subnetwork iff at least one endpoint is interior — exactly
// the extraction rule of Subnetwork ("cells plus the one-edge boundary
// ring, boundary edges kept whole"). An interior vertex therefore relaxes
// all its edges and a ring vertex only those leading to interior vertices.
// Sites, distances and relaxation counts equal those of plain Dijkstra on
// the materialized Subnetwork (Subnetwork.KNNSites, the differential
// oracle).
//
// The search is resumable: Next returns a hit without expanding it and the
// following Next picks up there, so pulling k hits and then m-k more costs
// exactly one m-hit search. The frontier, the tentative distances and the
// guard marks live in the caller's SearchScratch; the value itself is a
// cursor meant to live on the stack of one update. It is valid until the
// scratch starts anything else (another search, AppendINS, InSubnetwork),
// and it does not outlive the update, so a shared scratch never pins a
// superseded diagram.
type GuardSearch struct {
	d    *Diagram
	c    *roadnet.CSR
	road *roadnet.SearchScratch

	// pend is the last reported hit, settled but not yet expanded (-1 when
	// there is none), at distance pendD.
	pend  int32
	pendD float64
}

// markGuard stamps the guard sites in the scratch's mark set, the state
// interior and inSubnetwork read.
func (d *Diagram) markGuard(guard []int, road *roadnet.SearchScratch) {
	road.MarkBegin(d.g.NumVertices())
	for _, s := range guard {
		road.SetMark(int32(s), 1)
	}
}

// interior reports whether v lies in the cell of a marked guard site.
func (d *Diagram) interior(v int32, road *roadnet.SearchScratch) bool {
	o, _ := d.label(int(v))
	return o >= 0 && road.Mark(int32(o)) != 0
}

// inSubnetwork reports whether v is a vertex of the guard subnetwork:
// interior, or on the ring one edge away from an interior vertex.
func (d *Diagram) inSubnetwork(v int32, c *roadnet.CSR, road *roadnet.SearchScratch) bool {
	if d.interior(v, road) {
		return true
	}
	for e := c.Off[v]; e < c.Off[v+1]; e++ {
		if d.interior(c.To[e], road) {
			return true
		}
	}
	return false
}

// InSubnetwork reports whether vertex v belongs to the Theorem-2 subnetwork
// of the guard sites — v ∈ Subnetwork(guard).ToSub, without building it. The
// query layer asks it about a newly inserted site: one that lands inside
// the region every candidate closer than the guard radius must occupy
// invalidates the session.
func (d *Diagram) InSubnetwork(guard []int, v int, sc *SearchScratch) bool {
	if v < 0 || v >= d.g.NumVertices() {
		return false
	}
	d.markGuard(guard, &sc.road)
	return d.inSubnetwork(int32(v), d.g.CSR(), &sc.road)
}

// BeginGuardSearch starts a guard search from pos over the subnetwork of
// the given guard sites (which must be sites of d). ok is false when the
// position is not on the subnetwork — exactly when Subnetwork.Translate
// fails: a vertex that is neither interior nor on the ring, or an edge
// with no interior endpoint. The caller then has no Theorem-2 certificate
// to check and must recompute.
func (d *Diagram) BeginGuardSearch(pos roadnet.Position, guard []int, sc *SearchScratch) (s GuardSearch, ok bool) {
	n := d.g.NumVertices()
	if pos.U < 0 || pos.U >= n || pos.V < 0 || pos.V >= n {
		return s, false
	}
	s = GuardSearch{d: d, c: d.g.CSR(), road: &sc.road, pend: -1}
	d.markGuard(guard, s.road)
	s.road.Begin(n)
	if v, atVertex := pos.AtVertex(); atVertex {
		if !d.inSubnetwork(int32(v), s.c, s.road) {
			return s, false
		}
		s.seed(int32(v), 0)
		return s, true
	}
	u, v := int32(pos.U), int32(pos.V)
	if !d.interior(u, s.road) && !d.interior(v, s.road) {
		return s, false
	}
	w, isEdge := d.g.EdgeWeight(pos.U, pos.V)
	if !isEdge {
		return s, false
	}
	s.seed(u, pos.T*w)
	s.seed(v, (1-pos.T)*w)
	return s, true
}

func (s *GuardSearch) seed(v int32, dd float64) {
	if s.road.TryImprove(v, dd) {
		s.road.Push(dd, dd, v)
	}
}

// Next resumes the expansion until the next guard site is settled and
// returns it with its subnetwork distance; ok is false once the subnetwork
// is exhausted. relaxed is the number of subnetwork edges scanned from
// settled vertices during this call — the cost basis of
// metrics.Counters.EdgeRelaxations.
func (s *GuardSearch) Next() (site int, dist float64, relaxed int, ok bool) {
	if s.pend >= 0 {
		relaxed = s.expand(s.pend, s.pendD)
		s.pend = -1
	}
	for {
		_, dd, v, more := s.road.Pop()
		if !more {
			return 0, 0, relaxed, false
		}
		if dd > s.road.DistAt(v) {
			continue
		}
		if s.road.Mark(v) != 0 {
			s.pend, s.pendD = v, dd
			return int(v), dd, relaxed, true
		}
		relaxed += s.expand(v, dd)
	}
}

// expand relaxes the subnetwork edges of settled vertex v and returns how
// many there are: every edge of an interior vertex, and of a ring vertex
// those whose far endpoint is interior.
func (s *GuardSearch) expand(v int32, dd float64) int {
	c, road := s.c, s.road
	lo, hi := c.Off[v], c.Off[v+1]
	if s.d.interior(v, road) {
		for e := lo; e < hi; e++ {
			if nd := dd + c.W[e]; road.TryImprove(c.To[e], nd) {
				road.Push(nd, nd, c.To[e])
			}
		}
		return int(hi - lo)
	}
	n := 0
	for e := lo; e < hi; e++ {
		u := c.To[e]
		if !s.d.interior(u, road) {
			continue
		}
		n++
		if nd := dd + c.W[e]; road.TryImprove(u, nd) {
			road.Push(nd, nd, u)
		}
	}
	return n
}
