package netvor

import "repro/internal/roadnet"

// GuardSearch is the one incremental network expansion of the package: a
// resumable Dijkstra from the query position over the diagram's full-network
// CSR that reports the sites it settles, nearest first. It runs in two
// modes and can pass from the first to the second without starting over.
//
// Begun by BeginGuardSearch it is the per-update validation search of
// Theorem 2, confined to the subnetwork covered by the Voronoi cells of a
// guard set R ∪ I(R) and reporting guard sites only. The subnetwork is never
// built. It is a filter over the CSR: with the guard sites stamped in the
// scratch's mark set, a vertex is interior iff its owner is marked (one
// label read), the ring is every other vertex one edge away from an interior
// one, and an edge belongs to the subnetwork iff at least one endpoint is
// interior — exactly the extraction rule of Subnetwork ("cells plus the
// one-edge boundary ring, boundary edges kept whole"). An interior vertex
// therefore relaxes all its edges and a ring vertex only those leading to
// interior vertices. Sites, distances and relaxation counts equal those of
// plain Dijkstra on the materialized Subnetwork (Subnetwork.KNNSites, the
// differential oracle).
//
// Widened (Widen, or begun so by BeginSearch) the filter is off: every
// vertex relaxes all its edges and every site of the diagram is a hit — the
// full-network kNN expansion behind AppendKNN and the query layer's
// recomputation. Widen keeps the frontier, the tentative distances and the
// hits that are already exact, so a validation that proves R invalid
// continues into the recomputation instead of restarting from q.
//
// The search is resumable: Next returns a hit without expanding it and the
// following Next picks up there, so pulling k hits and then m-k more costs
// exactly one m-hit search. The frontier, the tentative distances, the
// guard marks and the settle log live in the caller's SearchScratch; the
// value itself is a cursor meant to live on the stack of one update. It is
// valid until the scratch starts anything else (another search, AppendINS,
// InSubnetwork), and it does not outlive the update, so a shared scratch
// never pins a superseded diagram.
type GuardSearch struct {
	d  *Diagram
	c  *roadnet.CSR
	sc *SearchScratch

	// pend is the last reported hit, settled but not yet expanded (-1 when
	// there is none), at distance pendD.
	pend  int32
	pendD float64

	// wide says the owner-label filter is off. While it is on, ringed says a
	// ring vertex has been settled — from then on labels are subnetwork
	// distances, upper bounds on the full network, and every settled vertex
	// is logged in sc.resettle. exact counts the hits that stand: those
	// reported before the ring, and every hit of a widened search.
	wide   bool
	ringed bool
	exact  int
}

// markGuard stamps the guard sites in the scratch's mark set, the state
// interior and inSubnetwork read.
func (d *Diagram) markGuard(guard []int, road *roadnet.SearchScratch) {
	road.MarkBegin()
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
	d.markGuard(guard, &sc.road)
	return d.begin(pos, sc, false)
}

// BeginSearch starts the search already widened: the full-network kNN
// expansion from pos. A position that is not on the network yields a search
// that is exhausted from the start.
func (d *Diagram) BeginSearch(pos roadnet.Position, sc *SearchScratch) GuardSearch {
	s, _ := d.begin(pos, sc, true)
	return s
}

// begin seeds a search at pos in either mode; the guard marks, when it is
// not wide, are already stamped. A search that is not ok has an empty
// frontier.
func (d *Diagram) begin(pos roadnet.Position, sc *SearchScratch, wide bool) (s GuardSearch, ok bool) {
	n := d.g.NumVertices()
	s = GuardSearch{d: d, c: d.g.CSR(), sc: sc, pend: -1, wide: wide}
	road := &sc.road
	road.Begin()
	sc.resettle = sc.resettle[:0]
	if pos.U < 0 || pos.U >= n || pos.V < 0 || pos.V >= n {
		return s, false
	}
	if v, atVertex := pos.AtVertex(); atVertex {
		if !wide && !d.inSubnetwork(int32(v), s.c, road) {
			return s, false
		}
		s.seed(int32(v), 0)
		return s, true
	}
	u, v := int32(pos.U), int32(pos.V)
	if !wide && !d.interior(u, road) && !d.interior(v, road) {
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
	if road := &s.sc.road; road.TryImprove(v, dd) {
		road.Push(dd, v)
	}
}

// Widen drops the owner-label filter: from here on the search expands the
// full network and reports every site. It returns how many of the hits
// reported so far are exact — the nearest sites of the full network, in
// order — and stay reported; the rest will be reported again, at their
// full-network distances and in their full-network order. On a search that
// is already wide that is every hit, and nothing else changes.
//
// Up to the first ring vertex it settled, the filtered search did what the
// unfiltered one does, pop for pop: every vertex was interior and relaxed
// all its edges, and a site settled there is a guard site. Those labels and
// hits are exact. A ring vertex skips its outward edges, so the labels of
// everything settled from it on are subnetwork distances: realisable on the
// full network, but a path that leaves the subnetwork may be shorter. Widen
// puts each of those vertices back on the frontier with its label. That
// restores the Dijkstra invariant — the settled set is the exact prefix,
// every settled vertex has relaxed all its edges, every other label is an
// upper bound with a frontier entry — so the unfiltered expansion settles
// each vertex again at its true distance and the stop rule holds: when the
// frontier minimum reaches D, every label below D is final. An exhausted
// subnetwork (Next returned !ok) is the same case with an empty frontier.
func (s *GuardSearch) Widen() (exact int) {
	s.wide, s.ringed = true, false
	road, log := &s.sc.road, s.sc.resettle
	for _, v := range log {
		road.Push(road.DistAt(v), v)
	}
	// A pending hit settled after the ring is among them; one settled before
	// is exact and is expanded by the next Next as usual.
	if n := len(log); n > 0 && log[n-1] == s.pend {
		s.pend = -1
	}
	s.sc.resettle = log[:0] // a second Widen must not queue them again
	return s.exact
}

// Next resumes the expansion until the next hit is settled — a guard site,
// or any site once widened — and returns it with its distance; ok is false
// once the search space is exhausted. relaxed is the number of edges scanned
// from settled vertices during this call — the cost basis of
// metrics.Counters.EdgeRelaxations.
func (s *GuardSearch) Next() (site int, dist float64, relaxed int, ok bool) {
	road := &s.sc.road
	if s.pend >= 0 {
		relaxed = s.expand(s.pend, s.pendD, s.wide || s.d.interior(s.pend, road))
		s.pend = -1
	}
	for {
		dd, v, more := road.Pop()
		if !more {
			return 0, 0, relaxed, false
		}
		if dd > road.DistAt(v) {
			continue
		}
		var hit, in bool
		if s.wide {
			o, _ := s.d.label(int(v))
			hit, in = o == int(v), true
		} else {
			hit = road.Mark(v) != 0
			in = hit || s.d.interior(v, road)
			if !in || s.ringed {
				s.ringed = true
				s.sc.resettle = append(s.sc.resettle, v)
			}
		}
		if hit {
			if !s.ringed {
				s.exact++
			}
			s.pend, s.pendD = v, dd
			return int(v), dd, relaxed, true
		}
		relaxed += s.expand(v, dd, in)
	}
}

// expand relaxes the edges of settled vertex v and returns how many there
// are: every edge of an interior vertex (all of them, once widened), and of
// a ring vertex those whose far endpoint is interior.
func (s *GuardSearch) expand(v int32, dd float64, interior bool) int {
	c, road := s.c, &s.sc.road
	lo, hi := c.Off[v], c.Off[v+1]
	if interior {
		for e := lo; e < hi; e++ {
			if nd := dd + c.W[e]; road.TryImprove(c.To[e], nd) {
				road.Push(nd, c.To[e])
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
			road.Push(nd, u)
		}
	}
	return n
}
