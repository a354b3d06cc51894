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
	// where the last update that measured every member stood (a
	// recomputation measures them all), from which measure bounds what it
	// need not evaluate. A re-rank permutes it along with R. floor is the
	// distance (not squared) from at of the nearest guard object, a member
	// of ids[k:] (+Inf for none), taken with the anchor. A re-rank leaves
	// it: until one moves a guard object into the kNN set the guards are the
	// same, and after, that member lies at least floor from at, so measure
	// evaluates it, and it is at least as far from p as any member floor
	// lets measure skip — r.delete is what a fresh floor would give.
	anchor []float64
	at     geom.Point
	floor  float64

	// hint is an object near the query — the nearest object the last
	// validation evaluated, else the last result's nearest object — from
	// which the next recomputation walks to the new nearest object instead
	// of starting cold from the index's entry grid. It survives Invalidate:
	// the guard sets may be stale after a data update, the neighbourhood is
	// not. deferred marks a hint the last validation left unresolved, having
	// found the kNN set valid without evaluating every member; Invalidate
	// resolves it.
	hint     int32 // an object id: ids are delaunay vertex slots, int32
	deferred bool

	// probe is set while the state is a recomputation's, cleared by a valid
	// or re-rank verdict: R is then in anchor order, as AppendPrefetch
	// returned it, and measure first looks for a pair of members that proves
	// the state stale (witness).
	probe bool

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
		q.probe = false
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

// locate records p as the last position reported, which R's radius about
// it follows.
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
// the nearest member of its influential set (R \ kNN) ∪ I(R)
// (r.candidate); R is valid as the ⌊ρk⌋-NN set while its farthest member
// is no farther than the nearest member of I(R).
//
// It evaluates only the distances a verdict can turn on. Every member o
// carries its anchor distance d(at, o), and with δ = d(p, at) the triangle
// inequality gives d(at, o) − δ ≤ d(p, o) ≤ d(at, o) + δ. A member of R
// whose anchor distance is at most floor − 2δ is thus no farther from p
// than any object at least floor from the anchor point — every I(R)
// member, and every guard object the floor was taken over — and cannot
// break a verdict; a guard object whose anchor distance exceeds r + δ is
// farther from p than r and cannot be closer than a member at radius r.
// measure evaluates δ and the kNN members the first bound does not rule
// out, at radius r, then the guard objects the second does not rule out
// against r; only if the kNN set is stale, the rest of R the first bound
// does not rule out and the I(R) members the second does not rule out
// against R's radius; only if R is valid, the rest of R, which the re-rank
// orders. Either pass stops at the first I(R) member inside its radius,
// which makes both verdicts false. A kNN set the first bound rules out
// whole needs no guard pass.
//
// A stale state needs one pair to prove it, a witness: a guard object
// nearer than a member. While the state is a recomputation's (probe), R is
// in anchor order, and its last two kNN members, the farthest from the
// anchor point, are held against the guards first (witness): an I(R)
// member nearer than one makes both verdicts false, an R \ kNN member the
// kNN set stale. Once the kNN set is stale, R's last two members are held
// against I(R) the same way before the rest of R is evaluated (judgeR).
// A search that finds no witness leaves the verdict to the passes, which
// reuse its distances. The verdicts are those of evaluating every member
// (TestBoundedValidationMatchesFullPass).
//
// The distances go to the scratch's buffer, marked -1 where not evaluated,
// which measure returns for the re-rank. The nearest member evaluated,
// ties to the lowest index, becomes the hint of a recomputation — after a
// stop, once the members the bound cannot place beyond it are evaluated
// too. A valid verdict that skipped a kNN member defers the hint to
// Invalidate, the only way to a recomputation that runs no validation
// first. A hint in R is the nearest object (nearest): its Delaunay ring
// lies in R ∪ I(R). An update that happened to evaluate every member
// becomes the new anchor.
func (q *PlaneQuery) measure(p geom.Point) (dist []float64, knnValid, rValid, nearest bool) {
	k := q.k
	dist = q.sc.Dists(len(q.ids))
	for i := range dist {
		dist[i] = -1
	}
	delta := math.Sqrt(p.Dist2(q.at))
	safe := below(q.floor, delta)
	t := tally{best: math.Inf(1), evals: 1}
	q.deferred = false
	// The witness search evaluates the kNN members ids[lo:k], r the
	// farthest of them.
	lo, r, by := k, 0.0, byPasses
	if q.probe {
		lo, r, by, t = q.witness(p, dist, delta, safe, t)
	}
	// stop marks an I(R) member nearer than a member of R: both verdicts
	// are false, and the members past it were held against no bound.
	stop := by == byBothStale
	if by == byPasses {
		skipped := false
		for i, id := range q.ids[:lo] {
			if q.anchor[i] <= safe {
				skipped = true
				continue
			}
			d := p.Dist2(q.ix.Point(id))
			dist[i] = d
			r = max(r, d)
			t = t.add(i, d)
		}
		// A kNN set the floor rules out whole (only δ evaluated) is valid
		// with no guard pass: a member that came from the guards since the
		// floor was taken is never ruled out, so the guards are the ones it
		// was taken over.
		if t.evals == 1 {
			return q.deferHint(dist, t)
		}
		var minGuard float64
		var g int
		minGuard, g, t.evals, stop = q.evaluateWithin(p, dist, k, r, delta, t.evals)
		if knnValid = r <= minGuard; knnValid && skipped {
			return q.deferHint(dist, t)
		}
		t = t.near(g, minGuard)
	}
	if !knnValid && !stop {
		rValid, stop, by, t = q.judgeR(p, dist, delta, safe, r, by, t)
	}
	if stop {
		t = q.complete(p, dist, delta, t)
	}
	q.m.DistanceCalcs += t.evals
	q.hint = int32(q.ids[t.h])
	if t.evals == 1+len(dist) {
		q.at = p
		copy(q.anchor, dist)
		q.setFloor()
	}
	if decided != nil {
		decided(q, by)
	}
	return dist, knnValid, rValid, t.h < q.nR
}

// tally is what a validation has evaluated so far: the nearest member, at
// index h and squared distance best, ties to the lowest index, and the
// distances spent.
type tally struct {
	h     int
	best  float64
	evals int
}

// add counts member i, evaluated at squared distance d.
func (t tally) add(i int, d float64) tally {
	t.evals++
	return t.near(i, d)
}

// near takes member i, at squared distance d, if it is the nearest.
func (t tally) near(i int, d float64) tally {
	if d < t.best || d == t.best && i < t.h {
		t.h, t.best = i, d
	}
	return t
}

// deferHint ends a validation that found the kNN set valid without
// evaluating every kNN member: the hint waits for Invalidate.
func (q *PlaneQuery) deferHint(dist []float64, t tally) ([]float64, bool, bool, bool) {
	q.deferred = true
	q.m.DistanceCalcs += t.evals
	if decided != nil {
		decided(q, byPasses)
	}
	return dist, true, false, false
}

// proof is what decided a validation: a witness, or the passes.
type proof uint8

const (
	byPasses    proof = iota
	byBothStale       // an I(R) member nearer than a kNN member
	byKNNStale        // an R \ kNN member nearer than a kNN member
	byRInvalid        // an I(R) member nearer than a member of R
)

// decided, when set, is told what decided each validation. Only tests set
// it, and only while no other query runs.
var decided func(*PlaneQuery, proof)

// witness looks, while R is in anchor order, for a guard object nearer
// than one of the last two kNN members, the farthest from the anchor
// point: an I(R) member (byBothStale), else an R \ kNN member
// (byKNNStale). It evaluates the two, unless the floor rules them out,
// then the guards whose anchor distance does not place them beyond the
// farther, I(R) in index order and R \ kNN in anchor order, and stops at
// the first nearer. It returns the lowest index of the kNN members it
// evaluated (k for none), the farthest of them and what it found
// (byPasses for nothing).
func (q *PlaneQuery) witness(p geom.Point, dist []float64, delta, safe float64, t tally) (lo int, r float64, by proof, _ tally) {
	k, nR, ids, anchor := q.k, q.nR, q.ids, q.anchor
	for lo = k; lo > max(0, k-2) && anchor[lo-1] > safe; {
		lo--
		d := p.Dist2(q.ix.Point(ids[lo]))
		dist[lo] = d
		r = max(r, d)
		t = t.add(lo, d)
	}
	if lo == k {
		return lo, r, byPasses, t
	}
	// I(R) lies beyond R from the anchor point: no I(R) member is nearer
	// than r unless R's last member is inside the bound.
	b := beyond(r, delta)
	for j := nR; j < len(ids) && anchor[nR-1] < b; j++ {
		if anchor[j] < b {
			d := p.Dist2(q.ix.Point(ids[j]))
			dist[j] = d
			if t = t.add(j, d); d < r {
				return lo, r, byBothStale, t
			}
		}
	}
	for j := k; j < nR && anchor[j] < b; j++ {
		d := p.Dist2(q.ix.Point(ids[j]))
		dist[j] = d
		if t = t.add(j, d); d < r {
			return lo, r, byKNNStale, t
		}
	}
	return lo, r, byPasses, t
}

// judgeR takes R's verdict once the kNN set is stale, r being the
// farthest member of R evaluated. While R is in anchor order it first
// looks for an I(R) member nearer than one of R's last two members, the
// farthest from the anchor point, or than r: it evaluates the two, unless
// the floor rules them out, and the I(R) members whose anchor distance
// does not place them beyond the farthest. Finding none, it evaluates the
// rest of R the floor does not rule out — such a member is no farther
// than any I(R) member, so R's verdict does not turn on it — and the I(R)
// members the bound about R's radius does not rule out, up to the first
// inside it. Only a valid R, which the re-rank orders, evaluates the rest
// of R. It reports whether R is valid, whether it stopped at an I(R)
// member inside R's radius, and what decided it.
func (q *PlaneQuery) judgeR(p geom.Point, dist []float64, delta, safe, r float64, by proof, t tally) (rValid, stop bool, _ proof, _ tally) {
	nR, ids, anchor := q.nR, q.ids, q.anchor
	if q.probe {
		for i := nR - 1; i >= max(0, nR-2); i-- {
			if dist[i] < 0 && anchor[i] > safe {
				d := p.Dist2(q.ix.Point(ids[i]))
				dist[i] = d
				r = max(r, d)
				t = t.add(i, d)
			}
		}
		b := beyond(r, delta)
		for j := nR; j < len(ids); j++ {
			d := dist[j]
			if d < 0 {
				if anchor[j] >= b {
					continue
				}
				d = p.Dist2(q.ix.Point(ids[j]))
				dist[j] = d
				t = t.add(j, d)
			}
			if d < r {
				return false, true, byRInvalid, t
			}
		}
	}
	skipped := false
	for i := range nR {
		d := dist[i]
		if d < 0 {
			if anchor[i] <= safe {
				skipped = true
				continue
			}
			d = p.Dist2(q.ix.Point(ids[i]))
			dist[i] = d
			t = t.add(i, d)
		}
		r = max(r, d)
	}
	minINS, g, evals, stop := q.evaluateWithin(p, dist, nR, r, delta, t.evals)
	t.evals = evals
	if t = t.near(g, minINS); stop {
		return false, true, by, t
	}
	for i := 0; skipped && i < nR; i++ {
		if dist[i] < 0 {
			d := p.Dist2(q.ix.Point(ids[i]))
			dist[i] = d
			t = t.add(i, d)
		}
	}
	return true, false, by, t
}

// complete completes the hint after a stop: it evaluates each member not
// yet evaluated whose anchor distance the bound cannot place beyond best,
// shrinking best as it goes. While probe is set R is in anchor order and
// I(R) lies beyond it, so a member of R beyond the bound, or R's last
// member, puts every member after it beyond too.
func (q *PlaneQuery) complete(p geom.Point, dist []float64, delta float64, t tally) tally {
	nR := q.nR
	b := reach(t.best, delta)
	for i := 0; i < len(dist); i++ {
		if dist[i] >= 0 {
			continue
		}
		if q.anchor[i] > b {
			if q.probe && (i < nR || q.anchor[nR-1] > b) {
				break
			}
			continue
		}
		d := p.Dist2(q.ix.Point(q.ids[i]))
		dist[i] = d
		if t = t.add(i, d); t.best == d {
			b = reach(d, delta)
		}
	}
	return t
}

// beyond is (√r2·margin + δ)²: a member whose anchor distance is at least
// it is no nearer than √r2 to p.
func beyond(r2, delta float64) float64 {
	b := math.Sqrt(r2)*margin + delta
	return b * b
}

// evaluateWithin evaluates into dist[i], for each member i ≥ from not yet
// evaluated, d²(p, ids[i]) — unless its anchor distance places it beyond
// radius √r2 of p, δ being p's distance from the anchor point. It returns
// the least distance in dist[from:] (+Inf for none) and its index (the
// lowest of a tie), evals plus the distances it evaluated and whether it
// stopped at an I(R) member nearer than √r2, where it looks no further.
func (q *PlaneQuery) evaluateWithin(p geom.Point, dist []float64, from int, r2, delta float64, evals int) (least float64, idx, _ int, stop bool) {
	bound := reach(r2, delta)
	least = math.Inf(1)
	end := len(dist)
	if q.probe && q.anchor[q.nR-1] > bound {
		end = q.nR // I(R) lies beyond R: none of it evaluated, none inside
	}
	for i := from; i < end; i++ {
		d := dist[i]
		if d < 0 {
			if q.anchor[i] > bound {
				continue
			}
			d = p.Dist2(q.ix.Point(q.ids[i]))
			dist[i] = d
			evals++
		}
		if d < least {
			least, idx = d, i
		}
		if i >= q.nR && d < r2 {
			return least, idx, evals, true
		}
	}
	return least, idx, evals, false
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
	q.probe = false
}

// setFloor takes floor afresh with a new anchor: the one root it costs is
// not taken per update.
func (q *PlaneQuery) setFloor() {
	least := math.Inf(1)
	for _, a := range q.anchor[q.k:] {
		if a < least {
			least = a
		}
	}
	q.floor = math.Sqrt(least)
}

// Invalidate discards the client state (R, I(R) and the kNN set) so that
// the next Update recomputes; the hint stays. A hint the last validation
// deferred is resolved first, as the nearest kNN member at the last
// position, ties to the lowest index — the one evaluating every member
// would have taken, as the verdict placed every guard object at least as
// far and after them. The index the query reads still holds every member:
// Advance invalidates before it moves on.
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
	q.probe, q.radius = true, -1
	q.hint = int32(ids[0])
	q.init = true
	q.m.NodeVisits += cost.NodeVisits
	q.m.DistanceCalcs += cost.SeedDists
	q.m.ObjectsShipped += len(ids)
	return nil
}
