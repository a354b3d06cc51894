package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/vortree"
)

// ErrEmptyIndex is returned when a query is issued against an index with no
// objects.
var ErrEmptyIndex = errors.New("core: no data objects")

// PlaneQuery is an INS-based moving kNN query in 2D Euclidean space. It is
// created once per query and fed the query object's location at every
// timestamp via Update. It is not safe for concurrent use.
//
// A query reads the VoR-tree it was created over until Advance moves it to
// a later snapshot of an index.Store (see the package documentation's
// lifecycle).
type PlaneQuery struct {
	session[geom.Point, vortree.SearchScratch]

	ix *vortree.Index // the index the query reads

	// anchor parallels ids: the squared distances from the anchor point at,
	// where the last update that evaluated every member stood (as a
	// recomputation does), by which measure bounds what it need not
	// evaluate. floor is the distance (not squared) from at of the nearest
	// guard object, a member of ids[k:] (+Inf for none), taken with the
	// anchor. A re-rank permutes anchor with R and leaves floor: a guard it
	// moves into the kNN set lies at least floor from at, so measure
	// evaluates it, and no member floor lets measure skip is farther.
	anchor []float64
	at     geom.Point
	floor  float64

	// hint is an object near the query — the nearest object the last
	// validation evaluated, else the last result's nearest — from which the
	// next recomputation walks to the new nearest instead of starting cold
	// from the index's entry grid. It survives Invalidate: the guard sets may
	// be stale after a data update, the neighbourhood is not. deferred marks
	// a hint a valid verdict left for Invalidate to resolve.
	hint     int32 // an object id: ids are delaunay vertex slots, int32
	deferred bool

	disableRerank bool

	// radius is d²(last, o) of R's farthest member o, which affects holds
	// every insert of an Advance window against; -1 until it is taken. Only
	// a new position (locate) and a new R (recomputeFrom) change it: a
	// re-rank only reorders R, and an invalidated state is judged no more
	// until a recomputation. Zero, as created, is right for the empty R.
	radius float64
}

// NewPlaneQuery creates an INS MkNN query over a VoR-tree, which it reads
// until Advance moves it on. k must be at least 1 and the prefetch ratio
// rho at least 1 (rho == 1 disables prefetching; the paper's demo uses
// rho = 1.6).
func NewPlaneQuery(ix *vortree.Index, k int, rho float64) (*PlaneQuery, error) {
	s, err := newSession[geom.Point, vortree.SearchScratch](k, rho, false)
	if err != nil {
		return nil, err
	}
	return &PlaneQuery{session: s, ix: ix, hint: vortree.NoHint}, nil
}

// Name identifies the processor in simulation reports.
func (q *PlaneQuery) Name() string { return "ins" }

// SetDisableLocalRerank turns off the local repair of a stale kNN set from
// the prefetched set (update cases (i)/(ii)); every invalidation then
// triggers a full recomputation. This exists for the ablation benchmark
// that measures what the incremental update path is worth.
func (q *PlaneQuery) SetDisableLocalRerank(v bool) { q.disableRerank = v }

// Advance moves the query to snapshot next, given the store's ops between
// the snapshot it reads and next and whether the log still covers that
// window (Store.OpsSince). It invalidates the client state only when a
// skipped mutation can affect it: an inserted object lands inside or
// adjacent to R, or a removed one is in R or I(R); a window the log no
// longer covers invalidates it. The serving engine's shard advances all its
// sessions over one window whenever the store moves on.
func (q *PlaneQuery) Advance(next *index.Snapshot, ops []index.Op, covered bool) {
	q.advance(q, next, ops, covered)
}

// Refresh recomputes an invalidated query at its last reported position at
// once; recomputed reports whether it did. The kNN slice aliases internal
// state under the same contract as Update. The serving engine calls it for
// sessions with push subscribers after advancing them.
func (q *PlaneQuery) Refresh() (knn []int, recomputed bool, err error) { return q.refresh(q) }

// affects judges one plane op against the index the query still reads,
// where every member of R and I(R) is live: an insert affects the state
// when it lands closer to the last position than the farthest member of R
// or neighbors a member of R (otherwise neither R nor I(R) changes), a
// removal when the object is in R or I(R). R's radius is taken at the
// first insert and kept until the state or the position changes.
func (q *PlaneQuery) affects(op *index.Op) bool {
	if !op.Insert {
		return slices.Contains(q.ids, op.ID)
	}
	r := q.ids[:q.nR]
	if slices.Contains(r, op.ID) {
		return true
	}
	if q.radius < 0 {
		q.radius = 0
		for _, id := range r {
			q.radius = max(q.radius, q.last.Dist2(q.ix.Point(id)))
		}
	}
	if q.last.Dist2(op.P) < q.radius {
		return true
	}
	for _, u := range op.Neighbors {
		if slices.Contains(r, u) { // both lists are O(k); no map needed
			return true
		}
	}
	return false
}

func (q *PlaneQuery) read(next *index.Snapshot, _ []index.Op, _ bool) { q.ix = next.Plane() }

// prefetchSize returns ⌊ρk⌋ clamped to [k, number of objects].
func (q *PlaneQuery) prefetchSize() int { return min(q.prefetchCap(), q.ix.Len()) }

// Update processes a location update of the query object and returns the
// current kNN set (ascending distance at the time of the last re-rank).
// The returned slice is shared; callers must not modify it. A position
// with a NaN or infinite coordinate is rejected before anything is counted
// or changed.
func (q *PlaneQuery) Update(p geom.Point) ([]int, error) {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		return nil, fmt.Errorf("%w: (%g, %g)", ErrInvalidPosition, p.X, p.Y)
	}
	q.m.Timestamps++
	q.locate(p)
	if !q.init {
		if err := q.recompute(p); err != nil {
			return nil, err
		}
		return q.knn(), nil
	}

	q.m.Validations++
	dist, knnValid, rValid, nearest := q.measure(p)
	if knnValid {
		return q.knn(), nil
	}
	q.m.Invalidations++

	// Update cases (i) and (ii) of Section III-B: the prefetched set R may
	// still be valid even though the kNN set is stale, in which case the
	// new kNN set is composed locally by re-ranking R — no communication.
	// The distances are the ones measure just evaluated.
	if rValid && !q.disableRerank {
		q.rerank(dist)
		return q.knn(), nil
	}
	if err := q.recomputeFrom(p, nearest); err != nil {
		return nil, err
	}
	return q.knn(), nil
}

// locate records p as the last position, which R's radius follows.
func (q *PlaneQuery) locate(p geom.Point) {
	q.last, q.located, q.radius = p, true, -1
}

// margin widens measure's triangle-inequality bound by a relative 2⁻³⁰,
// far above the rounding of the squared distances, root and sum it
// compares (a few units of 2⁻⁵³ each): a member the bound skips is farther
// from the query than the radius in floating point, not only in the reals.
const margin = 1 + 0x1p-30

// reach is ((√r2 + δ)·margin)²: a member whose anchor distance exceeds it
// is farther than √r2 from p.
func reach(r2, delta float64) float64 {
	b := (math.Sqrt(r2) + delta) * margin
	return b * b
}

// shrink is 1/margin², rounded: the rounding is far below the margin.
const shrink = 1 / (margin * margin)

// below is ((floor − δ)/margin² − δ)², or -1 when that base is not
// positive: a kNN member whose anchor distance is at most it is no farther
// from p than any object at least floor from the anchor point.
func below(floor, delta float64) float64 {
	f := (floor-delta)*shrink - delta
	if f <= 0 {
		return -1
	}
	return f * f
}

// measure takes the two verdicts of an Update at p. The kNN set is valid
// (Section III-A) while its farthest member (r.delete) is no farther than
// the nearest member of (R \ kNN) ∪ I(R) (r.candidate), R while its
// farthest member is no farther than the nearest of I(R). Both are one
// rule, walk: the members ids[:hi] hold while no guard object in ids[hi:]
// is nearer than one. It is applied to the kNN set (hi = k) and, only if an
// R \ kNN member proves that stale, to R (hi = nR).
//
// With δ = d(p, at), d(at, o) − δ ≤ d(p, o) ≤ d(at, o) + δ. A member of R
// at most floor − 2δ from the anchor point is thus no farther from p than
// any object at least floor from it — every I(R) member, every guard the
// floor was taken over — and is skipped; a guard more than r + δ from it
// is farther than r. The walk takes the members from the far end and, each
// time the farthest distance r it evaluated grows, holds against r every
// guard the bound admits, I(R) first, up to the first nearer than r: a
// witness. A walk that finds none has evaluated every member the floor
// does not rule out and every guard the bound about its final r admits, so
// its verdict is the full pass's (TestBoundedValidationMatchesFullPass).
//
// The distances go to the scratch's buffer, -1 where not evaluated, which
// measure returns for the re-rank; a valid R evaluates the members the
// floor skipped too. The nearest member evaluated, ties to the lowest
// index, is the hint of a recomputation, completed after a witness in I(R);
// a valid verdict that skipped a kNN member defers it to Invalidate. A hint
// in R is the nearest object. An update that evaluated every member becomes
// the new anchor.
func (q *PlaneQuery) measure(p geom.Point) (dist []float64, knnValid, rValid, nearest bool) {
	k, nR := q.k, q.nR
	delta := math.Sqrt(p.Dist2(q.at))
	var v validation // set field by field: a literal is built and copied
	v.safe = below(q.floor, delta)
	by := byPasses
	// A kNN set the floor rules out whole is valid with no member to walk.
	top := k - 1
	for top >= 0 && q.anchor[top] <= v.safe {
		top--
	}
	if top >= 0 {
		dist = q.sc.Dists(len(q.ids))
		for i := range dist {
			dist[i] = -1
		}
		v.q, v.p, v.dist, v.delta, v.best = q, p, dist, delta, math.Inf(1)
		// Every I(R) member was among the guards floor was taken over.
		v.ins = guards{math.Inf(1), math.Float64bits(q.floor * q.floor * shrink)}
		v.rest = guards{math.Inf(1), 0}
		if by = v.walk(k, byBothStale); by == byKNNStale && v.walk(nR, byRInvalid) == byRInvalid {
			by = byRInvalid
		}
	}
	knnValid, rValid = by == byPasses, by == byKNNStale
	q.deferred = knnValid && (dist == nil || slices.Contains(dist[:k], -1))
	switch {
	case rValid:
		for i, d := range dist[:nR] {
			if d < 0 {
				v.take(i, v.eval(i))
			}
		}
	case !knnValid:
		v.complete()
	}
	q.m.DistanceCalcs += 1 + v.evals
	if !q.deferred {
		q.hint = int32(q.ids[v.h])
	}
	if v.evals == len(q.ids) {
		q.at = p
		copy(q.anchor, dist)
		q.setFloor()
	}
	if decided != nil {
		decided(q, by)
	}
	return dist, knnValid, rValid, v.h < nR
}

// proof is what decided a validation: a witness, or a walk that found none.
type proof uint8

const (
	byPasses    proof = iota
	byBothStale       // an I(R) member nearer than a kNN member
	byKNNStale        // an R \ kNN member nearer than a kNN member
	byRInvalid        // an I(R) member nearer than a member of R
)

// decided, set only by tests while no other query runs, hears every proof.
var decided func(*PlaneQuery, proof)

// validation is measure's state: the walk's r, the nearest member evaluated
// (h, at best), the evaluations, and what the walks know of I(R) and R \ kNN.
type validation struct {
	q              *PlaneQuery
	p              geom.Point
	dist           []float64
	delta, safe, r float64
	h, evals       int
	best           float64
	ins, rest      guards
}

// guards is what a walk knows of a range of guard objects: the least
// distance evaluated and next, the float64 bits (ordered as the distances)
// below every anchor distance not evaluated, which a scan makes their least.
type guards struct {
	least float64
	next  uint64
}

// walk holds the members ids[:hi] against the guards ids[hi:] and reports
// the witness it stops at: ins for I(R), byKNNStale for R \ kNN, byPasses for
// none. The R walk starts at the kNN walk's r, against which that held I(R).
func (v *validation) walk(hi int, ins proof) proof {
	q, dist, anchor, safe := v.q, v.dist, v.q.anchor, v.safe
	for i := hi - 1; i >= 0; i-- {
		d := dist[i]
		if d < 0 {
			if anchor[i] <= safe {
				continue
			}
			d = v.eval(i)
			v.take(i, d)
		}
		if d <= v.r {
			continue
		}
		v.r = d
		b := math.Float64bits(reach(d, v.delta))
		if v.hold(q.nR, len(dist), &v.ins, b) {
			return ins
		}
		if hi < q.nR && v.hold(hi, q.nR, &v.rest, b) {
			return byKNNStale
		}
	}
	return byPasses
}

// hold holds the guards ids[from:to], of which the walk knows g, against
// r: it evaluates those whose anchor distance's bits are at most b, those
// of reach(r, δ), and reports whether one is nearer than r, where it stops.
func (v *validation) hold(from, to int, g *guards, b uint64) bool {
	r := v.r
	if g.least < r {
		return true
	}
	if b < g.next {
		return false
	}
	dist, anchor := v.dist, v.q.anchor
	least, next := g.least, uint64(math.MaxUint64)
	for j := from; j < to; j++ {
		// A guard evaluated was admitted by a bound no wider than b.
		if a := math.Float64bits(anchor[j]); a > b {
			next = min(next, a) // an integer minimum, without float NaN fix-ups
			continue
		}
		if dist[j] >= 0 {
			continue
		}
		// Only a witness can be nearer than the members evaluated.
		d := v.eval(j)
		if d < r {
			v.take(j, d)
			return true
		}
		least = min(least, d)
	}
	g.least, g.next = least, next
	return false
}

// eval evaluates member i's distance from p.
func (v *validation) eval(i int) float64 {
	d := v.p.Dist2(v.q.ix.Point(v.q.ids[i]))
	v.dist[i] = d
	v.evals++
	return d
}

// take makes member i, at squared distance d, the nearest evaluated if it
// is nearer, or as near at a lower index.
func (v *validation) take(i int, d float64) {
	if d < v.best || d == v.best && i < v.h {
		v.h, v.best = i, d
	}
}

// complete completes the hint after a witness in I(R): it evaluates each
// member the walk left whose anchor distance the bound cannot place beyond
// best, shrinking best as it goes.
func (v *validation) complete() {
	b, anchor := reach(v.best, v.delta), v.q.anchor
	n := len(v.dist)
	if math.Float64bits(b) < v.ins.next {
		n = v.q.nR // no member of I(R) within the bound
	}
	for i, d := range v.dist[:n] {
		if anchor[i] <= b && d < 0 {
			if d = v.eval(i); d < v.best {
				b = reach(d, v.delta)
			}
			v.take(i, d)
		}
	}
}

// rerank sorts R by this update's distances, ties by id, carrying each
// member's anchor distance along. R arrives ordered by the distances of an
// earlier position, so an insertion sort costs about one comparison per
// member plus one swap per pair the move reordered, and needs no sort view.
func (q *PlaneQuery) rerank(dist []float64) {
	r := q.ids[:q.nR]
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && (dist[j] < dist[j-1] || dist[j] == dist[j-1] && r[j] < r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
			dist[j], dist[j-1] = dist[j-1], dist[j]
			q.anchor[j], q.anchor[j-1] = q.anchor[j-1], q.anchor[j]
		}
	}
}

// setFloor takes floor afresh with a new anchor: the one root it costs is
// not taken per update.
func (q *PlaneQuery) setFloor() {
	q.floor = math.Inf(1)
	if guards := q.anchor[q.k:]; len(guards) > 0 {
		q.floor = math.Sqrt(slices.Min(guards))
	}
}

// Invalidate discards the client state (R, I(R) and the kNN set) so that
// the next Update recomputes; the hint stays. A deferred hint is resolved
// first, as the nearest kNN member at the last position, ties to the lowest
// index — the full pass's, as the verdict placed every guard object at
// least as far and after them. The index the query reads still holds every
// member: Advance invalidates before it moves on.
func (q *PlaneQuery) Invalidate() {
	if q.deferred {
		q.hint = int32(q.ids[q.nearestKNN()])
		q.m.DistanceCalcs += q.k
		q.deferred = false
	}
	q.session.Invalidate()
}

// nearestKNN returns the index in ids of the kNN member nearest to the last
// position, ties to the lowest index.
func (q *PlaneQuery) nearestKNN() int {
	h, best := 0, math.Inf(1)
	for i, id := range q.ids[:q.k] {
		if d := q.last.Dist2(q.ix.Point(id)); d < best {
			h, best = i, d
		}
	}
	return h
}

// recompute performs the server-side computation: fetch the ⌊ρk⌋ nearest
// objects and their influential neighbor set, with their distances from p,
// which become the anchor, and ship both to the client. It invalidates
// first, so a failure leaves no stale guard set behind.
func (q *PlaneQuery) recompute(p geom.Point) error { return q.recomputeFrom(p, false) }

// recomputeFrom is recompute from a hint that, if nearest, this update's
// validation proved the nearest object to p: the search starts there.
func (q *PlaneQuery) recomputeFrom(p geom.Point, nearest bool) error {
	q.Invalidate()
	if q.ix.Len() == 0 {
		return ErrEmptyIndex
	}
	if q.ix.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds object count %d", q.k, q.ix.Len())
	}
	q.m.Recomputations++
	ids, d2, nR, cost := q.ix.AppendPrefetch(p, q.prefetchSize(), int(q.hint), nearest, q.ids[:0], q.anchor[:0], q.scratch())
	q.ids, q.anchor, q.nR, q.at = ids, d2, nR, p
	q.setFloor()
	q.radius = -1
	q.hint = int32(ids[0])
	q.init = true
	q.m.NodeVisits += cost.NodeVisits
	q.m.DistanceCalcs += cost.SeedDists
	q.m.ObjectsShipped += len(ids)
	return nil
}
