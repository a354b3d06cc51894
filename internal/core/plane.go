package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/vortree"
)

// ErrEmptyIndex is returned when a query is issued against an index with no
// objects.
var ErrEmptyIndex = errors.New("core: no data objects")

// ErrReadOnly is returned by the index-mutation convenience methods
// (InsertObject/RemoveObject) on a snapshot-pinned query; mutations of a
// shared index go through its index.Store instead.
var ErrReadOnly = errors.New("core: snapshot-pinned query cannot mutate the index")

// PlaneQuery is an INS-based moving kNN query in 2D Euclidean space. It is
// created once per query and fed the query object's location at every
// timestamp via Update. It is not safe for concurrent use.
//
// A query resolves its index through one of two handles: NewPlaneQuery
// binds it to a raw VoR-tree it may also mutate (the single-threaded
// experiment mode), while NewPlaneQueryPinned pins it to the immutable
// snapshots of an index.Store shared with other sessions — every Update
// then lazily re-pins to the newest snapshot, invalidating the client
// state only when a skipped mutation could affect it.
type PlaneQuery struct {
	ix  *vortree.Index
	k   int
	rho float64
	m   metrics.Counters

	// store and snap are set on a snapshot-pinned query only: snap is the
	// pinned snapshot, released on Close or when re-pinning, and ix is its
	// plane index. A raw query (store == nil) owns ix and may mutate it.
	store *index.Store
	snap  *index.Snapshot

	init          bool
	located       bool // Update has been called at least once; lastPos is meaningful
	lastPos       geom.Point
	disableRerank bool

	// The client state is one id list: ids = R followed by I(R), as one
	// recomputation ships them, R being ids[:nR]. The kNN set is always
	// R[:k] — a re-rank permutes R itself, so R is in ascending distance as
	// of the last recomputation or re-rank. anchor parallels ids: the
	// squared distances from the anchor point at, where the last update
	// that measured every member stood (a recomputation measures them all),
	// from which measure bounds what it need not evaluate. The buffers
	// survive Invalidate; slices returned by Update alias ids and are
	// rewritten by the next Update/Sync/Refresh, which is the package's
	// slice-ownership contract.
	ids    []int
	nR     int
	anchor []float64
	at     geom.Point

	// hint is an object near the query — the nearest object the last
	// validation evaluated, else the last result's nearest object — from
	// which the next recomputation walks to the new nearest object instead
	// of descending the R-tree. It survives Invalidate: the guard sets may
	// be stale after a data update, the neighbourhood is not.
	hint int

	// sc is the search working memory: the engine's per-shard scratch (see
	// UseScratch), or one the query allocates at its first recomputation.
	sc *vortree.SearchScratch
}

// NewPlaneQuery creates an INS MkNN query over the given VoR-tree index.
// k must be at least 1 and the prefetch ratio rho at least 1 (rho == 1
// disables prefetching; the paper's demo uses rho = 1.6).
func NewPlaneQuery(ix *vortree.Index, k int, rho float64) (*PlaneQuery, error) {
	if err := validateParams(k, rho); err != nil {
		return nil, err
	}
	return &PlaneQuery{ix: ix, k: k, rho: rho, hint: vortree.NoHint}, nil
}

// NewPlaneQueryPinned creates an INS MkNN query served from the immutable
// snapshots of a shared index store. The query pins the current snapshot
// and re-pins lazily at each Update; call Close when the session ends so
// old snapshots can be collected.
func NewPlaneQueryPinned(st *index.Store, k int, rho float64) (*PlaneQuery, error) {
	if err := validateParams(k, rho); err != nil {
		return nil, err
	}
	if !st.HasPlane() {
		return nil, fmt.Errorf("core: %w", index.ErrNoPlane)
	}
	snap := st.Acquire()
	if snap == nil {
		return nil, fmt.Errorf("core: %w", index.ErrClosed)
	}
	return &PlaneQuery{ix: snap.Plane(), store: st, snap: snap, k: k, rho: rho, hint: vortree.NoHint}, nil
}

// UseScratch makes the query run its index searches through the given
// shared scratch instead of allocating its own. The serving engine passes
// one scratch per shard: a shard's sessions run serially on its worker
// goroutine, so sharing is race-free, and the scratch's visited array
// (sized by the object id space) is paid for once per shard rather than
// once per session.
func (q *PlaneQuery) UseScratch(sc *vortree.SearchScratch) {
	if sc != nil {
		q.sc = sc
	}
}

func validateParams(k int, rho float64) error {
	if k < 1 {
		return fmt.Errorf("core: k = %d, must be >= 1", k)
	}
	if rho < 1 {
		return fmt.Errorf("core: prefetch ratio rho = %g, must be >= 1", rho)
	}
	return nil
}

// Name identifies the processor in simulation reports.
func (q *PlaneQuery) Name() string { return "ins" }

// K returns the query parameter k.
func (q *PlaneQuery) K() int { return q.k }

// Rho returns the prefetch ratio.
func (q *PlaneQuery) Rho() float64 { return q.rho }

// Metrics returns the accumulated cost counters.
func (q *PlaneQuery) Metrics() *metrics.Counters { return &q.m }

// SetDisableLocalRerank turns off the local repair of a stale kNN set from
// the prefetched set (update cases (i)/(ii)); every invalidation then
// triggers a full recomputation. This exists for the ablation benchmark
// that measures what the incremental update path is worth.
func (q *PlaneQuery) SetDisableLocalRerank(v bool) { q.disableRerank = v }

// knn returns the current kNN set: the first k members of R (nil while the
// client state is invalidated).
func (q *PlaneQuery) knn() []int {
	if len(q.ids) == 0 {
		return nil
	}
	return q.ids[:q.k]
}

// r returns the prefetched set R and ins its influential neighbor set I(R),
// the two halves of the id list.
func (q *PlaneQuery) r() []int   { return q.ids[:q.nR] }
func (q *PlaneQuery) ins() []int { return q.ids[q.nR:] }

// Current returns the current kNN set (ascending distance as of the last
// re-rank) as a fresh copy; see the package slice-ownership contract.
func (q *PlaneQuery) Current() []int { return append([]int(nil), q.knn()...) }

// AppendCurrent appends the current kNN set onto dst and returns it — the
// zero-copy accessor for callers that own a reusable buffer (the engine
// shards and the stream broker). The copying accessors remain the public
// facade's contract.
func (q *PlaneQuery) AppendCurrent(dst []int) []int { return append(dst, q.knn()...) }

// AppendPrefetched appends the prefetched set R onto dst; its first k
// members are the current kNN set.
func (q *PlaneQuery) AppendPrefetched(dst []int) []int { return append(dst, q.r()...) }

// AppendINS appends I(R) onto dst, in no particular order.
func (q *PlaneQuery) AppendINS(dst []int) []int { return append(dst, q.ins()...) }

// Sync re-pins a snapshot-backed query to the newest published snapshot
// (a no-op for raw-index queries and when already current). If any data
// update between the pinned and the newest epoch can affect the query's
// guard sets — the inserted object lands inside or adjacent to the
// prefetched set, or a removed object participates in it — the client
// state is invalidated and the next Update recomputes; otherwise the
// existing state carries over unchanged, which is the paper's lazy
// invalidation applied at re-pin time. Update calls Sync automatically;
// the serving engine also calls it on epoch notifications so dormant
// sessions release old snapshots promptly.
func (q *PlaneQuery) Sync() {
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
				if op.Network {
					continue // site mutations cannot affect a plane session
				}
				// Affectedness is evaluated against the still-pinned old
				// snapshot (q.ix), where every guard object is live.
				switch {
				case op.Conservative:
					invalidate = true
				case op.Insert:
					invalidate = q.AffectedByInsert(op.ID, op.P, op.Neighbors)
				default:
					invalidate = q.UsesObject(op.ID)
				}
				if invalidate {
					break
				}
			}
		}
	}
	q.snap.Release()
	q.snap = next
	q.ix = next.Plane()
	if invalidate {
		q.Invalidate()
	}
}

// Refresh turns lazy invalidation into eager repair: it re-pins via Sync
// and, when that invalidated the client state (a skipped data update
// touched the guard sets), immediately recomputes at the last reported
// position instead of waiting for the next location update. recomputed
// reports whether a recomputation ran; the kNN slice aliases internal
// state under the same contract as Update (rewritten by the next
// Update/Sync/Refresh — copy before retaining or crossing goroutines).
//
// The serving engine calls it on epoch notifications for sessions with
// push subscribers, so a subscriber observes the post-update kNN without
// the client ever polling. Sessions that never reported a position have
// nothing to recompute and return recomputed=false.
func (q *PlaneQuery) Refresh() (knn []int, recomputed bool, err error) {
	q.Sync()
	if q.init || !q.located {
		return q.knn(), false, nil
	}
	if err := q.recompute(q.lastPos); err != nil {
		return nil, false, err
	}
	return q.knn(), true, nil
}

// Epoch returns the pinned snapshot's epoch (0 for raw-index queries).
func (q *PlaneQuery) Epoch() uint64 {
	if q.snap == nil {
		return 0
	}
	return q.snap.Epoch()
}

// Close releases the query's snapshot pin. It is idempotent and a no-op
// for raw-index queries; the query must not be used afterwards.
func (q *PlaneQuery) Close() {
	if q.snap != nil {
		q.snap.Release()
		q.snap = nil
	}
}

// InfluenceSet returns the current client-side guard set
// IS = (R ∪ I(R)) \ kNN, the objects whose approach invalidates the kNN
// set. The result is freshly allocated.
func (q *PlaneQuery) InfluenceSet() []int {
	return append([]int(nil), q.ids[len(q.knn()):]...)
}

// Prefetched returns the prefetched set R as a fresh copy; its first k
// members are the current kNN set.
func (q *PlaneQuery) Prefetched() []int { return append([]int(nil), q.r()...) }

// INS returns I(R), the influential neighbor set of the prefetched set, as
// a fresh copy in no particular order.
func (q *PlaneQuery) INS() []int { return append([]int(nil), q.ins()...) }

// prefetchSize returns ⌊ρk⌋ clamped to [k, number of objects].
func (q *PlaneQuery) prefetchSize() int {
	m := int(q.rho * float64(q.k))
	if m < q.k {
		m = q.k
	}
	if n := q.ix.Len(); m > n {
		m = n
	}
	return m
}

// Update processes a location update of the query object and returns the
// current kNN set (ascending distance at the time of the last re-rank).
// The returned slice is shared; callers must not modify it.
func (q *PlaneQuery) Update(p geom.Point) ([]int, error) {
	q.Sync()
	q.m.Timestamps++
	q.lastPos = p
	q.located = true
	if !q.init {
		if err := q.recompute(p); err != nil {
			return nil, err
		}
		return q.knn(), nil
	}

	q.m.Validations++
	dist, knnValid, rValid := q.measure(p)
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
	if err := q.recompute(p); err != nil {
		return nil, err
	}
	return q.knn(), nil
}

// margin widens measure's triangle-inequality bound by a relative 2⁻³⁰,
// far above the rounding of the squared distances, root and sum it
// compares (a few units of 2⁻⁵³ each): a member the bound skips is farther
// from the query than the radius in floating point, not only in the reals.
const margin = 1 + 0x1p-30

// measure takes the two verdicts of an Update at p. The kNN set is valid
// (Section III-A) while its farthest member (r.delete) is no farther than
// the nearest member of its influential set (R \ kNN) ∪ I(R)
// (r.candidate); R is valid as the ⌊ρk⌋-NN set while its farthest member
// is no farther than the nearest member of I(R).
//
// It evaluates only the distances a verdict can turn on. Every member o
// carries its anchor distance d(at, o), and with δ = d(p, at) the triangle
// inequality gives d(p, o) ≥ d(at, o) − δ, so a guard object whose anchor
// distance exceeds r + δ is farther from p than r and cannot be closer
// than a member at radius r. measure evaluates δ and the kNN members, then
// the guard objects the bound does not rule out against the kNN radius;
// only if the kNN set is stale, the rest of R (a re-rank orders it) and
// the I(R) members the bound does not rule out against R's radius. The
// verdicts are those of evaluating every member
// (TestBoundedValidationMatchesFullPass).
//
// The distances go to the scratch's buffer, marked -1 where not evaluated,
// which measure returns for the re-rank. The nearest object evaluated —
// the nearest of all, as every skipped one is farther than a kNN member —
// becomes the hint of a recomputation that may follow, and an update that
// happened to evaluate every member becomes the new anchor.
func (q *PlaneQuery) measure(p geom.Point) (dist []float64, knnValid, rValid bool) {
	k, nR := q.k, q.nR
	dist = q.sc.Dists(len(q.ids))
	delta := math.Sqrt(p.Dist2(q.at))
	maxKNN := 0.0
	for i, id := range q.ids[:k] {
		dist[i] = p.Dist2(q.ix.Point(id))
		maxKNN = max(maxKNN, dist[i])
	}
	for i := k; i < len(dist); i++ {
		dist[i] = -1
	}
	evals := 1 + k
	minGuard, n := q.evaluateWithin(p, dist, k, maxKNN, delta)
	knnValid = maxKNN <= minGuard
	evals += n
	if !knnValid {
		maxR := maxKNN
		for i := k; i < nR; i++ {
			if dist[i] < 0 {
				dist[i] = p.Dist2(q.ix.Point(q.ids[i]))
				evals++
			}
			maxR = max(maxR, dist[i])
		}
		minINS, n := q.evaluateWithin(p, dist, nR, maxR, delta)
		rValid = maxR <= minINS
		evals += n
	}
	q.m.DistanceCalcs += evals

	nearest := 0
	for i, d := range dist {
		if d >= 0 && d < dist[nearest] {
			nearest = i
		}
	}
	q.hint = q.ids[nearest]
	if evals == 1+len(dist) {
		q.at = p
		copy(q.anchor, dist)
	}
	return dist, knnValid, rValid
}

// evaluateWithin evaluates into dist[i], for each member i ≥ from not yet
// evaluated, d²(p, ids[i]) — unless its anchor distance places it beyond
// radius √r2 of p, δ being p's distance from the anchor point. It returns
// the least distance evaluated in dist[from:] (+Inf for none) and the
// number of distances it evaluated.
func (q *PlaneQuery) evaluateWithin(p geom.Point, dist []float64, from int, r2, delta float64) (least float64, evals int) {
	bound := (math.Sqrt(r2) + delta) * margin
	bound *= bound
	least = math.Inf(1)
	for i := from; i < len(dist); i++ {
		if dist[i] < 0 {
			if q.anchor[i] > bound {
				continue
			}
			dist[i] = p.Dist2(q.ix.Point(q.ids[i]))
			evals++
		}
		least = min(least, dist[i])
	}
	return least, evals
}

// rerank sorts R by this update's distances, ties by id, carrying each
// member's anchor distance along. R arrives ordered by the distances of an
// earlier position, so an insertion sort costs about one comparison per
// member plus one swap per pair the move reordered, and needs no sort view.
func (q *PlaneQuery) rerank(dist []float64) {
	r := q.r()
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && (dist[j] < dist[j-1] || dist[j] == dist[j-1] && r[j] < r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
			dist[j], dist[j-1] = dist[j-1], dist[j]
			q.anchor[j], q.anchor[j-1] = q.anchor[j-1], q.anchor[j]
		}
	}
}

// recompute performs the server-side computation: fetch the ⌊ρk⌋ nearest
// objects and their influential neighbor set, with their distances from p,
// which become the anchor, and ship both to the client. It invalidates
// first, so a failure leaves no stale guard set behind.
func (q *PlaneQuery) recompute(p geom.Point) error {
	q.Invalidate()
	if q.ix.Len() == 0 {
		return ErrEmptyIndex
	}
	if q.ix.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds object count %d", q.k, q.ix.Len())
	}
	if q.sc == nil {
		q.sc = new(vortree.SearchScratch)
	}
	q.m.Recomputations++
	ids, d2, nR, cost := q.ix.AppendPrefetch(p, q.prefetchSize(), q.hint, q.ids[:0], q.anchor[:0], q.sc)
	q.ids, q.anchor, q.nR, q.at = ids, d2, nR, p
	q.hint = ids[0]
	q.init = true
	q.m.NodeVisits += cost.NodeVisits
	q.m.DistanceCalcs += cost.SeedDists
	q.m.ObjectsShipped += len(ids)
	return nil
}

// Invalidate discards the client-side state (R, I(R) and the kNN set) so
// the next Update performs a full recomputation. The serving engine calls
// it when an index mutation applied outside this query (the index is shared
// by many sessions) may have changed the query's guard sets; the
// recomputation itself happens lazily at the session's next location
// update.
func (q *PlaneQuery) Invalidate() {
	q.init = false
	q.ids, q.nR = q.ids[:0], 0
}

// AffectedByInsert reports whether an object just inserted into the index
// (id at point p, with Voronoi neighbor list neighbors) can change this
// query's prefetched state: it lands closer than the farthest prefetched
// object or neighbors a prefetched object. The caller supplies the
// neighbor list so that it is looked up once per index mutation rather
// than once per query sharing the index.
func (q *PlaneQuery) AffectedByInsert(id int, p geom.Point, neighbors []int) bool {
	return q.init && q.affectsState(id, p, func() ([]int, error) { return neighbors, nil })
}

// UsesObject reports whether id participates in the query's client-side
// state (the prefetched set R or its influential set I(R)); removing such
// an object from the index invalidates the state.
func (q *PlaneQuery) UsesObject(id int) bool { return slices.Contains(q.ids, id) }

// InsertObject adds a data object during query maintenance. The prefetched
// state is refreshed only when the new object can affect it: when it lands
// closer than the farthest prefetched object or becomes a Voronoi neighbor
// of a prefetched object (otherwise neither R nor I(R) changes). It is
// only available on raw-index queries; snapshot-pinned queries return
// ErrReadOnly.
func (q *PlaneQuery) InsertObject(p geom.Point) (int, error) {
	if q.store != nil {
		return -1, ErrReadOnly
	}
	id, err := q.ix.Insert(p)
	if err != nil {
		return -1, err
	}
	if !q.init {
		return id, nil
	}
	if q.affectsState(id, p, func() ([]int, error) { return q.ix.Neighbors(id) }) {
		if err := q.recompute(q.lastPos); err != nil {
			return id, err
		}
	}
	return id, nil
}

// affectsState decides whether a just-inserted object can change the
// prefetched state. The neighbor list is requested lazily — only after the
// cheaper distance tests fail to prove affectedness — so single-query
// callers skip the lookup in the common case while the serving engine can
// supply a list it already fetched once per shard.
func (q *PlaneQuery) affectsState(id int, p geom.Point, neighbors func() ([]int, error)) bool {
	var maxR float64
	for _, rid := range q.r() {
		if rid == id {
			return true
		}
		if d := q.lastPos.Dist2(q.ix.Point(rid)); d > maxR {
			maxR = d
		}
	}
	if q.lastPos.Dist2(p) < maxR {
		return true
	}
	nb, err := neighbors()
	if err != nil {
		return true // be conservative
	}
	for _, u := range nb {
		for _, rid := range q.r() { // both lists are O(k); no map needed
			if rid == u {
				return true
			}
		}
	}
	return false
}

// RemoveObject deletes a data object during query maintenance. State is
// refreshed when the object participated in the prefetched set or its
// influential neighbors; otherwise the removal cannot change R or I(R).
// It is only available on raw-index queries; snapshot-pinned queries
// return ErrReadOnly.
func (q *PlaneQuery) RemoveObject(id int) error {
	if q.store != nil {
		return ErrReadOnly
	}
	inState := q.UsesObject(id)
	if err := q.ix.Remove(id); err != nil {
		return err
	}
	if q.init && inState {
		return q.recompute(q.lastPos)
	}
	return nil
}
