package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/vortree"
)

// fullPassUpdate is Update with the validation the anchor bound replaced:
// every member of R ∪ I(R) evaluated, each verdict and the hint read off
// the whole array. It drives a twin PlaneQuery through the same recompute
// and re-rank code, so the two differ in measure alone.
func fullPassUpdate(q *planeOnStore, p geom.Point) ([]int, error) {
	q.Sync()
	q.m.Timestamps++
	q.locate(p)
	if !q.init {
		if err := q.recompute(p); err != nil {
			return nil, err
		}
		return q.knn(), nil
	}
	q.m.Validations++
	dist := make([]float64, len(q.ids))
	nearest := 0
	for i, id := range q.ids {
		dist[i] = p.Dist2(q.ix.Point(id))
		if dist[i] < dist[nearest] {
			nearest = i
		}
	}
	q.m.DistanceCalcs += len(dist)
	q.hint = int32(q.ids[nearest])
	k, nR := q.k, q.nR
	minRest, minINS := math.Inf(1), math.Inf(1)
	if nR > k {
		minRest = slices.Min(dist[k:nR])
	}
	if len(dist) > nR {
		minINS = slices.Min(dist[nR:])
	}
	if slices.Max(dist[:k]) <= min(minRest, minINS) {
		return q.knn(), nil
	}
	q.m.Invalidations++
	if slices.Max(dist[:nR]) <= minINS && !q.disableRerank {
		q.rerank(dist)
		return q.knn(), nil
	}
	if err := q.recompute(p); err != nil {
		return nil, err
	}
	return q.knn(), nil
}

// settledHint is the hint a recomputation of q would walk from: the one
// its last validation left, or the one Invalidate would settle a deferred
// hint to, taken without touching the counters.
func settledHint(q *PlaneQuery) int {
	if q.deferred {
		return q.ids[q.nearestKNN()]
	}
	return int(q.hint)
}

// floorHolds reports whether q's floor is the bound measure may skip kNN
// members by: the distance from the anchor point of q's nearest guard
// object, or, left from before a re-rank, at most that of some kNN member,
// which measure then evaluates and which is at least as far as every
// member it skips. Distances are measured afresh, not read from q.anchor.
func floorHolds(q *PlaneQuery) bool {
	least, most := math.Inf(1), 0.0
	for i, id := range q.ids {
		if d := q.at.Dist2(q.ix.Point(id)); i < q.k {
			most = max(most, d)
		} else {
			least = min(least, d)
		}
	}
	return q.floor == math.Sqrt(least) || q.floor <= math.Sqrt(most)
}

// boundedCase is one input geometry of the differential test. On a lattice
// (h > 0) the query walks the half-lattice, so it stands on objects, on
// midpoints between them and in line with rows of them; elsewhere it walks
// freely and jumps, half the time, to one of the focus points — unless the
// case has a path, which it replays with no mutation in between.
type boundedCase struct {
	name   string
	bounds geom.Rect
	pts    []geom.Point
	h      float64
	focus  []geom.Point
	path   []geom.Point
}

// ulpTie is where the triangle inequality is tight and only the margin
// covers the rounding. From the anchor at the origin the query steps
// δ = 0.2 along the x axis, straight towards g; its kNN member f and g
// are then both 0.5 away in the reals, and in floating point g is one ulp
// nearer — the kNN set is stale. g's anchor distance is exactly δ + 0.5 in
// the reals, yet it rounds above (√M + δ)², the bound without the margin.
// Coordinates are lattice points of spacing 0.1 computed at run time
// (0.7000000000000001, not the constant 0.7), which is what rounds this
// way. The path goes back and forth, so each step recomputes.
func ulpTie() boundedCase {
	h := 0.1
	at := func(i, j int) geom.Point { return geom.Pt(float64(i)*h/2, float64(j)*h/2) }
	pts := []geom.Point{at(-4, -6), at(14, 0)}
	for _, c := range [][2]float64{{-3, -3}, {3, -3}, {3, 3}, {-3, 3}} {
		pts = append(pts, geom.Pt(c[0], c[1]))
	}
	return boundedCase{
		name:   "ulp tie",
		bounds: geom.NewRect(geom.Pt(-4, -4), geom.Pt(4, 4)),
		pts:    pts,
		path:   []geom.Point{at(0, 0), at(4, 0)},
	}
}

// ulpTieKNN is where the kNN side's bound is tight and only its margin
// covers the rounding. The anchor at (-0.25, 0) has its kNN member f at
// (-1.7, 0) and the nearest guard g at (1.9, 0); the query steps δ = 0.35
// along the x axis, straight away from f and towards g, to (0.1, 0). In
// the reals f and g are then both 1.8 away and d(at, f) = d(at, g) − 2δ,
// so the bound without the margin rules f out; in floating point g is one
// ulp nearer — the kNN set is stale. Coordinates are computed at run time
// as in ulpTie, and the path goes back and forth, so each step recomputes.
func ulpTieKNN() boundedCase {
	h := 0.1
	at := func(i int) geom.Point { return geom.Pt(float64(i)*h/2, 0) }
	pts := []geom.Point{at(-34), at(38)}
	for _, c := range [][2]float64{{-4, -4}, {4, -4}, {4, 4}, {-4, 4}} {
		pts = append(pts, geom.Pt(c[0], c[1]))
	}
	return boundedCase{
		name:   "ulp tie, kNN side",
		bounds: geom.NewRect(geom.Pt(-5, -5), geom.Pt(5, 5)),
		pts:    pts,
		path:   []geom.Point{at(-5), at(2)},
	}
}

func boundedCases() []boundedCase {
	lattice := func(h float64) boundedCase {
		const side = 40
		var pts []geom.Point
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				pts = append(pts, geom.Pt(float64(i)*h, float64(j)*h))
			}
		}
		far := float64(side-1) * h
		return boundedCase{bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(far, far)), pts: pts, h: h}
	}
	integer, decimal := lattice(1), lattice(0.1)
	integer.name = "integer lattice"
	// Spacing 0.1 is not a binary fraction: distances equal in the reals
	// differ by an ulp or two once rounded, so near-ties abound.
	decimal.name = "decimal lattice"

	// A ring of 48 objects around an empty disc: at its centre they are all
	// equidistant.
	c := geom.Pt(500, 500)
	var ring []geom.Point
	for _, p := range randomPoints(1500, 72) {
		if p.Dist2(c) > 60*60 {
			ring = append(ring, p)
		}
	}
	for i := 0; i < 48; i++ {
		a := 2 * math.Pi * float64(i) / 48
		ring = append(ring, geom.Pt(c.X+40*math.Cos(a), c.Y+40*math.Sin(a)))
	}

	// Objects along the four sides and at the corners of the bounds.
	edge := randomPoints(600, 73)
	var corners []geom.Point
	for i := 0; i <= 40; i++ {
		v := float64(i) * 25
		edge = append(edge, geom.Pt(0, v), geom.Pt(1000, v), geom.Pt(v, 0), geom.Pt(v, 1000))
		if i%10 == 0 {
			corners = append(corners, geom.Pt(0, v), geom.Pt(1000, v))
		}
	}
	return []boundedCase{
		{name: "uniform", bounds: testBounds, pts: randomPoints(2000, 71)},
		integer,
		decimal,
		{name: "cocircular ring", bounds: testBounds, pts: ring, focus: []geom.Point{c}},
		{name: "bounds edge", bounds: testBounds, pts: edge, focus: corners},
	}
}

// boundedWalk generates the query positions: a standstill, steps of 2 and
// 16 in the benchmark's units (its objects are 31.6 apart, so here
// fractions of the object spacing), and jumps across the map.
type boundedWalk struct {
	tc      boundedCase
	rng     *rand.Rand
	spacing float64
	i, j    int // half-lattice cursor, or position on the path
	p       geom.Point
}

func (w *boundedWalk) next() geom.Point {
	if path := w.tc.path; len(path) > 0 {
		w.p = path[w.i%len(path)]
		w.i++
		return w.p
	}
	b := w.tc.bounds
	kind := w.rng.Intn(8) // 0: stay; 1-3: step 2; 4-6: step 16; 7: jump
	if w.tc.h > 0 {
		n := int(math.Round(b.Width()/w.tc.h)) * 2
		switch {
		case kind == 7:
			w.i, w.j = w.rng.Intn(n+1), w.rng.Intn(n+1)
		case kind > 0:
			d := 1
			if kind >= 4 {
				d = 2 + w.rng.Intn(3)
			}
			w.i += d * (w.rng.Intn(3) - 1)
			w.j += d * (w.rng.Intn(3) - 1)
		}
		w.i, w.j = min(max(w.i, 0), n), min(max(w.j, 0), n)
		w.p = geom.Pt(float64(w.i)*w.tc.h/2, float64(w.j)*w.tc.h/2)
		return w.p
	}
	switch {
	case kind == 7 && len(w.tc.focus) > 0 && w.rng.Intn(2) == 0:
		w.p = w.tc.focus[w.rng.Intn(len(w.tc.focus))]
	case kind == 7:
		w.p = geom.Pt(b.Min.X+w.rng.Float64()*b.Width(), b.Min.Y+w.rng.Float64()*b.Height())
	case kind > 0:
		step := 2.0
		if kind >= 4 {
			step = 16
		}
		a := w.rng.Float64() * 2 * math.Pi
		step *= w.spacing / 31.6
		w.p = geom.Pt(w.p.X+step*math.Cos(a), w.p.Y+step*math.Sin(a))
	}
	w.p = geom.Pt(min(max(w.p.X, b.Min.X), b.Max.X), min(max(w.p.Y, b.Min.Y), b.Max.Y))
	return w.p
}

// TestBoundedValidationMatchesFullPass is the differential test of the
// anchor bound: a session validating with it and a twin evaluating every
// guard object walk together — uniform data, integer and decimal lattices,
// a cocircular ring around the query, objects on the bounds edge; k = 1, 5,
// 10, 20 at ρ = 1.6 and k = 5 at ρ = 1 — through standstills, short and
// long steps and jumps, with inserts and removals near and far, Invalidate,
// Refresh and re-pins that invalidate nothing mixed in, on a store each,
// repaired by Refresh after every mutation, and on one shared store, re-pinned
// lazily. After every call the two agree on the kNN set in
// order, R in order, I(R) as a set, the hint a recomputation would walk
// from (settledHint) and every counter but DistanceCalcs, which the
// bounded session must spend less of. On uniform data with k ≥ 5 some
// validation must have found the kNN set valid without evaluating every
// kNN member, and at ρ > 1 each way a validation can be decided — by each
// of the three witnesses and by the passes — must have decided some update.
func TestBoundedValidationMatchesFullPass(t *testing.T) {
	params := []struct {
		k   int
		rho float64
	}{{1, 1.6}, {5, 1.6}, {10, 1.6}, {20, 1.6}, {5, 1}}
	for ci, tc := range boundedCases() {
		for pi, par := range params {
			for _, shared := range []bool{false, true} {
				seed := int64(100*ci + 10*pi)
				if shared {
					seed++
				}
				runBoundedTwin(t, tc, par.k, par.rho, shared, seed, nil)
			}
		}
	}
	for _, shared := range []bool{false, true} {
		runBoundedTwin(t, ulpTie(), 1, 1.6, shared, 1, nil)
		runBoundedTwin(t, ulpTieKNN(), 1, 1.6, shared, 1, nil)
	}
}

// twin is a bounded session a and its full-pass twin b, on stores stA and
// stB (one store when shared).
type twin struct {
	a, b     *planeOnStore
	stA, stB *index.Store
}

// runBoundedTwin walks a bounded session and its full-pass twin together
// and compares them after every call. A non-nil event runs after every
// update that deferred the hint; it must settle the hint with exactly k
// evaluations, and must have run at least 10 times.
func runBoundedTwin(t *testing.T, tc boundedCase, k int, rho float64, shared bool, seed int64, event func(tw twin)) {
	mode := "own stores"
	if shared {
		mode = "shared store"
	}
	name := tc.name + " " + mode
	// a and b pin stA and stB, one store when shared.
	stA, err := index.NewStore(index.Config{Bounds: tc.bounds, Objects: tc.pts})
	if err != nil {
		t.Fatal(err)
	}
	stB := stA
	if !shared {
		if stB, err = index.NewStore(index.Config{Bounds: tc.bounds, Objects: tc.pts}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := newPlaneOnStore(stA, k, rho)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlaneOnStore(stB, k, rho)
	if err != nil {
		t.Fatal(err)
	}
	// One scratch for both, as a shard's sessions share one.
	sc := new(vortree.SearchScratch)
	a.UseScratch(sc)
	b.UseScratch(sc)

	rng := rand.New(rand.NewSource(seed))
	b0 := tc.bounds
	spacing := math.Sqrt(b0.Width() * b0.Height() / float64(len(tc.pts)))
	w := &boundedWalk{tc: tc, rng: rng, spacing: spacing, p: b0.Center()}
	if tc.h > 0 {
		n := int(math.Round(b0.Width()/tc.h)) * 2
		w.i, w.j = n/2, n/2
	}
	step := 0
	same := func(what string, knnA, knnB []int, errA, errB error) {
		t.Helper()
		ma, mb := a.Metrics(), b.Metrics()
		switch {
		case (errA == nil) != (errB == nil):
			t.Fatalf("%s k=%d rho=%g step %d %s: errors %v | %v", name, k, rho, step, what, errA, errB)
		case !slices.Equal(knnA, knnB) || !slices.Equal(a.Current(), b.Current()):
			t.Fatalf("%s k=%d rho=%g step %d %s: kNN %v | full pass %v", name, k, rho, step, what, knnA, knnB)
		case !slices.Equal(a.Prefetched(), b.Prefetched()):
			t.Fatalf("%s k=%d rho=%g step %d %s: R %v | full pass %v", name, k, rho, step, what, a.Prefetched(), b.Prefetched())
		case !slices.Equal(slices.Sorted(slices.Values(a.INS())), slices.Sorted(slices.Values(b.INS()))):
			t.Fatalf("%s k=%d rho=%g step %d %s: I(R) %v | full pass %v", name, k, rho, step, what, a.INS(), b.INS())
		case settledHint(a.PlaneQuery) != int(b.hint):
			t.Fatalf("%s k=%d rho=%g step %d %s: hint %d | full pass %d", name, k, rho, step, what, settledHint(a.PlaneQuery), b.hint)
		case a.init && !floorHolds(a.PlaneQuery):
			t.Fatalf("%s k=%d rho=%g step %d %s: floor %g bounds neither the guards nor a kNN member", name, k, rho, step, what, a.floor)
		case ma.Timestamps != mb.Timestamps || ma.Validations != mb.Validations || ma.Invalidations != mb.Invalidations ||
			ma.Recomputations != mb.Recomputations || ma.ObjectsShipped != mb.ObjectsShipped || ma.NodeVisits != mb.NodeVisits:
			t.Fatalf("%s k=%d rho=%g step %d %s: counters %+v | full pass %+v", name, k, rho, step, what, *ma, *mb)
		}
	}
	// A point in bounds near the query, on the half-lattice for a lattice.
	near := func() geom.Point {
		if tc.h > 0 {
			return geom.Pt(w.p.X+float64(rng.Intn(3)-1)*tc.h/2, w.p.Y+float64(rng.Intn(3)-1)*tc.h/2)
		}
		return geom.Pt(w.p.X+rng.Float64()*4-2, w.p.Y+rng.Float64()*4-2)
	}
	far := func() geom.Point {
		return geom.Pt(b0.Min.X+rng.Float64()*b0.Width(), b0.Min.Y+rng.Float64()*b0.Height())
	}
	live := func() int { return stA.Current().Plane().Len() }
	victim := func() int {
		if state := append(a.Prefetched(), a.INS()...); len(state) > 0 && rng.Intn(2) == 0 {
			return state[rng.Intn(len(state))]
		}
		ids := stA.Current().Plane().IDs()
		return ids[rng.Intn(len(ids))]
	}
	// repair follows a mutation: on a store each, Refresh; on a shared store,
	// after an insert, now and then an engine epoch notification (Sync).
	repair := func(what string) {
		if shared {
			if rng.Intn(2) == 0 {
				a.Sync()
				b.Sync()
			}
			same(what, a.knn(), b.knn(), nil, nil)
			return
		}
		knnA, recA, errA := a.Refresh()
		knnB, recB, errB := b.Refresh()
		if recA != recB {
			t.Fatalf("%s step %d: %s Refresh recomputed %v | %v", name, step, what, recA, recB)
		}
		same(what, knnA, knnB, errA, errB)
	}

	const steps = 400
	deferred := 0
	var decidedBy [byRInvalid + 1]int // a's validations by what decided them
	decided = func(q *PlaneQuery, by proof) {
		if q == a.PlaneQuery {
			decidedBy[by]++
		}
	}
	defer func() { decided = nil }()
	for step = 0; step < steps; step++ {
		p := w.next()
		knnA, errA := a.Update(p)
		knnB, errB := fullPassUpdate(b, p)
		same("update", knnA, knnB, errA, errB)
		if a.deferred {
			deferred++
		}
		if a.deferred && event != nil {
			// Past the k settling evaluations, what follows costs both the same.
			before := a.Metrics().DistanceCalcs - b.Metrics().DistanceCalcs
			event(twin{a, b, stA, stB})
			settled := a.Metrics().DistanceCalcs - b.Metrics().DistanceCalcs - before
			if a.deferred || settled != k {
				t.Fatalf("%s step %d: the event left the hint deferred %v after %d settling evaluations, want %d", name, step, a.deferred, settled, k)
			}
			same("event", a.knn(), b.knn(), nil, nil)
		}
		if tc.path != nil || rng.Intn(6) != 0 {
			continue
		}
		switch op := rng.Intn(6); {
		case op == 0 || op == 1: // insert near the query or anywhere
			pt := far()
			if op == 0 {
				pt = near()
			}
			if !tc.bounds.Contains(pt) {
				continue
			}
			idA, err := stA.Insert(pt)
			if err != nil {
				t.Fatal(err)
			}
			if !shared {
				if idB, err := stB.Insert(pt); err != nil || idB != idA {
					t.Fatalf("%s step %d: insert ids %d | %d (%v)", name, step, idA, idB, err)
				}
			}
			repair("insert")
		case op == 2 && live() > 4*k+20: // remove a member of the state or any object
			id := victim()
			if err := stA.Remove(id); err != nil {
				t.Fatal(err)
			}
			if !shared {
				if err := stB.Remove(id); err != nil {
					t.Fatal(err)
				}
				repair("remove")
			}
		case op == 3:
			a.Invalidate()
			b.Invalidate()
			same("invalidate", a.knn(), b.knn(), nil, nil)
		case op == 4:
			knnA, recA, errA := a.Refresh()
			knnB, recB, errB := b.Refresh()
			if recA != recB {
				t.Fatalf("%s step %d: Refresh recomputed %v | %v", name, step, recA, recB)
			}
			same("refresh", knnA, knnB, errA, errB)
		}
	}
	ma, mb := a.Metrics(), b.Metrics()
	if ma.DistanceCalcs >= mb.DistanceCalcs {
		t.Errorf("%s k=%d rho=%g: the bound evaluated %d distances, the full pass %d", name, k, rho, ma.DistanceCalcs, mb.DistanceCalcs)
	}
	if tc.name == "uniform" && k >= 5 && deferred == 0 {
		t.Errorf("%s k=%d rho=%g: no validation skipped a kNN member", name, k, rho)
	}
	// At ρ = 1, R is the kNN set: a stale kNN set is stale R, found by the
	// both-stale witness or the passes.
	if tc.name == "uniform" && k >= 5 && rho > 1 && slices.Contains(decidedBy[:], 0) {
		t.Errorf("%s k=%d rho=%g: validations decided by the passes, a both-stale, a kNN-stale and an R-invalid witness: %v; want each at least once",
			name, k, rho, decidedBy)
	}
	if event != nil && deferred < 10 {
		t.Errorf("%s: %d validations deferred the hint, want at least 10", name, deferred)
	}
	if tc.name == "uniform" && !shared && k == 5 && rho == 1.6 {
		t.Logf("%s k=%d: %d distances against the full pass's %d over %d updates (%d recomputations); decided by passes, both-stale, kNN-stale, R-invalid: %v",
			name, k, ma.DistanceCalcs, mb.DistanceCalcs, ma.Timestamps, ma.Recomputations, decidedBy)
	}
}

// TestDeferredHintSettlesAsFullPass: a validation that finds the kNN set
// valid without evaluating every kNN member leaves the hint unresolved, and
// whatever discards the state next settles it to the hint a full pass takes.
// The differential walk of runBoundedTwin, on a store each, runs one event
// after every update that deferred the hint: an insert beside the query
// that Advance judges as invalidating, the public Invalidate followed by
// Refresh, or the removal of the would-be hint itself; on an integer
// lattice, where kNN members tie, Invalidate and Refresh. The event must
// charge the k settling evaluations to DistanceCalcs, and the
// recomputation that follows must walk from the twin's hint: the same kNN
// set, R in order, I(R) and NodeVisits.
func TestDeferredHintSettlesAsFullPass(t *testing.T) {
	uniform := boundedCase{name: "uniform", bounds: testBounds, pts: randomPoints(2000, 81)}
	lattice := boundedCases()[1]
	mutate := func(tw twin, f func(st *index.Store) error) {
		for _, st := range []*index.Store{tw.stA, tw.stB} {
			if err := f(st); err != nil {
				t.Fatal(err)
			}
		}
		tw.a.Sync()
		tw.b.Sync()
	}
	refresh := func(tw twin) {
		tw.a.Invalidate()
		tw.b.Invalidate()
		for _, q := range []*planeOnStore{tw.a, tw.b} {
			if _, _, err := q.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name  string
		tc    boundedCase
		event func(tw twin)
	}{
		{"advance", uniform, func(tw twin) {
			// Halfway to the nearest object: nearer than every kNN member.
			h, p := tw.a.ix.Point(settledHint(tw.a.PlaneQuery)), tw.a.last
			mid := geom.Pt((h.X+p.X)/2, (h.Y+p.Y)/2)
			mutate(tw, func(st *index.Store) error { _, err := st.Insert(mid); return err })
		}},
		{"invalidate and refresh", uniform, refresh},
		{"remove the hint", uniform, func(tw twin) {
			h := settledHint(tw.a.PlaneQuery)
			mutate(tw, func(st *index.Store) error { return st.Remove(h) })
		}},
		{"integer lattice", lattice, refresh},
	} {
		tc := c.tc
		tc.name += ", " + c.name
		runBoundedTwin(t, tc, 5, 1.6, false, 82, c.event)
	}
}
