// Package metrics defines the cost counters the experiments report. The
// paper's efficiency argument is about three quantities: how often the
// result must be recomputed (communication between query client and
// processor), how much data each recomputation ships, and how much work
// each per-timestamp validation costs. Counters make those comparable
// across processors without depending on wall-clock noise.
package metrics

import "fmt"

// Counters accumulates query-processing costs. The zero value is ready to
// use.
type Counters struct {
	Timestamps     int // location updates processed
	Validations    int // per-timestamp validity checks performed
	Invalidations  int // validations that found the kNN set stale
	Recomputations int // full server-side recomputations (communication events)
	ObjectsShipped int // data objects sent client-ward by recomputations
	// DistanceCalcs counts point-to-point distance evaluations. In the
	// plane, a validation's: the step from the anchor point, then each
	// member of R ∪ I(R) it evaluates, once — the members its walk from the
	// far end takes that the floor does not rule out and the guards the
	// anchor bound admits as the walk's radius grows, up to a witness,
	// before a re-rank the rest of R, and before a recomputation the members
	// that may still be nearer than the hint. Beside it, the k of an
	// invalidation that settles a hint a valid verdict deferred, and a hint
	// walk's — none when the validation proved its hint the nearest object —
	// but not a recomputation's Voronoi expansion.
	DistanceCalcs   int
	DijkstraRuns    int // shortest-path searches begun (road network mode): per update the AnchorBuilds, plus one unless the edge anchor's tables answer it (a recomputation continues its validation search)
	EdgeRelaxations int // Dijkstra edge relaxations (road network mode)
	NodeVisits      int // index nodes or grid cells touched (stand-in for page I/O)

	// The road-network split: of Validations, AnchoredValidations were
	// decided from the session's edge anchor without a search and ended
	// valid, the kNN set kept or re-ranked from R (recomputations the tables
	// answer are not counted here; they begin no search either). An anchor
	// takes two endpoint tables when a session arms on an edge, one when it
	// carries a shared endpoint onto the next edge: AnchorBuilds counts the
	// tables searched for, one search each, AnchorTableHits those the
	// per-vertex table store served instead. Table entries read, and the
	// invalidation stamps a cache hit checks, count as DistanceCalcs.
	AnchoredValidations int
	AnchorBuilds        int
	AnchorTableHits     int
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Timestamps += other.Timestamps
	c.Validations += other.Validations
	c.Invalidations += other.Invalidations
	c.Recomputations += other.Recomputations
	c.ObjectsShipped += other.ObjectsShipped
	c.DistanceCalcs += other.DistanceCalcs
	c.DijkstraRuns += other.DijkstraRuns
	c.EdgeRelaxations += other.EdgeRelaxations
	c.NodeVisits += other.NodeVisits
	c.AnchoredValidations += other.AnchoredValidations
	c.AnchorBuilds += other.AnchorBuilds
	c.AnchorTableHits += other.AnchorTableHits
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// String implements fmt.Stringer with the fields the experiment tables use.
func (c Counters) String() string {
	return fmt.Sprintf(
		"steps=%d validations=%d invalidations=%d recomputations=%d shipped=%d distcalcs=%d dijkstra=%d relax=%d nodevisits=%d anchored=%d anchorbuilds=%d anchorhits=%d",
		c.Timestamps, c.Validations, c.Invalidations, c.Recomputations,
		c.ObjectsShipped, c.DistanceCalcs, c.DijkstraRuns, c.EdgeRelaxations, c.NodeVisits,
		c.AnchoredValidations, c.AnchorBuilds, c.AnchorTableHits)
}
