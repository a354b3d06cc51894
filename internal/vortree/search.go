package vortree

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/voronoi"
)

// KNN returns the k nearest objects to q in ascending distance order using
// the VR-kNN strategy: find the nearest object — here by a walk from the
// triangulation's entry grid — then expand incrementally over stored
// Voronoi neighbor lists, touching O(k) Voronoi records. It is the cold
// form — each call allocates its working memory, O(k) of it; callers that
// search repeatedly hold a SearchScratch and use AppendKNN.
func (ix *Index) KNN(q geom.Point, k int) []int {
	var sc SearchScratch
	ids, _ := ix.AppendKNN(q, k, nil, &sc)
	return ids
}

// NoHint is the hint of a search that knows no object near its query
// point; the search then starts from the entry grid.
const NoHint = -1

// maxSeedHops bounds the hint walk. A hint is worth following only while
// it is cheaper than a cold start (one grid cell and a walk of about a
// dozen distances): a hint one or two cells away — a moving query's
// previous nearest object — arrives in as many hops, while one across the
// data space would cost O(√n) of them, so past this many the walk is
// abandoned for the grid.
const maxSeedHops = 8

// SearchCost is what one search spent finding its nearest object: the
// entry-grid cells it read (the page-I/O stand-in: 1 for a cold start, 0
// when a hint led there) and the object distances its walks evaluated. The
// Voronoi expansion that follows costs the same however the search was
// seeded and is not counted here — including the distance it evaluates for
// every object it reaches, which AppendPrefetch hands to its caller.
type SearchCost struct {
	NodeVisits int
	SeedDists  int
}

// SearchScratch is reusable working memory for AppendPrefetch, AppendKNN
// and AppendINS: the Voronoi expansion frontier, the visited set, the
// neighbor-walk buffers and a distance buffer a caller may borrow between
// searches (Dists). The zero value is ready to use; a scratch serves any
// number of sequential searches against any index version — or unrelated
// indexes — but must not be shared across goroutines.
//
// The visited set holds the ids the current search reached and nothing
// else: an open-addressed table, epoch-stamped, so its logical clear is a
// counter bump and not a wipe (the shape of roadnet.SearchScratch's mark
// set). It is sized by the widest search the scratch has served — some 2 KB
// for the |R ∪ I(R)| ≈ 60 objects of a recomputation — whatever the size of
// the index or of its id space, so a scratch is as cheap to own as to use.
// The serving engine keeps one per shard worker for all of the worker's
// sessions.
type SearchScratch struct {
	pq    nnHeap
	seen  []visitSlot // a power of two long, at most a quarter of it live
	nSeen int
	epoch uint32
	nb    []int
	ring  voronoi.NeighborScratch
	dists []float64
}

// Dists returns n float64s owned by the scratch, for a caller that measures
// distances between searches — a plane session's validation writes there
// the distances of the guard objects it evaluates. The contents are
// undefined; the next call, and the next AppendKNN through the scratch,
// overwrite them.
func (sc *SearchScratch) Dists(n int) []float64 {
	sc.dists = slices.Grow(sc.dists[:0], n)[:n]
	return sc.dists
}

// visitSlot is one entry of the visited set, live while epoch is the set's.
type visitSlot struct {
	id    int32 // object ids are delaunay vertex slots, which are int32
	epoch uint32
}

// beginVisit empties the visited set.
func (sc *SearchScratch) beginVisit() {
	if sc.seen == nil {
		sc.seen = make([]visitSlot, 64)
	}
	sc.nSeen = 0
	sc.epoch++
	if sc.epoch == 0 { // wrapped: slots of 2^32 searches ago would read as live
		clear(sc.seen)
		sc.epoch = 1
	}
}

// seenAt returns the slot that holds id, or the free one where it goes.
// Nothing leaves the set within an epoch, so the first slot that is not
// live ends the probe.
func (sc *SearchScratch) seenAt(id int32) *visitSlot {
	h := uint32(id) * 0x9E3779B1
	for i := h ^ h>>16; ; i++ {
		if s := &sc.seen[i&uint32(len(sc.seen)-1)]; s.epoch != sc.epoch || s.id == id {
			return s
		}
	}
}

// visit adds id to the visited set and reports whether the current search
// reached it for the first time.
func (sc *SearchScratch) visit(id int) bool {
	s := sc.seenAt(int32(id))
	if s.epoch == sc.epoch {
		return false
	}
	if sc.nSeen++; 4*sc.nSeen > len(sc.seen) {
		old := sc.seen
		sc.seen = make([]visitSlot, 2*len(old))
		for _, o := range old {
			if o.epoch == sc.epoch {
				*sc.seenAt(o.id) = o
			}
		}
		s = sc.seenAt(int32(id))
	}
	*s = visitSlot{int32(id), sc.epoch}
	return true
}

// AppendKNN is KNN appending onto dst with caller-supplied scratch, and
// what the cold start of this search cost: the grid cells read plus the
// distances the walk evaluated. dst may be nil.
func (ix *Index) AppendKNN(q geom.Point, k int, dst []int, sc *SearchScratch) ([]int, int) {
	var cost SearchCost
	dst, sc.dists, cost = ix.expand(q, k, NoHint, false, dst, sc.dists[:0], sc)
	return dst, cost.NodeVisits + cost.SeedDists
}

// AppendPrefetch is the server side of one INS recomputation in a single
// pass: it appends onto dst the m nearest objects to q in ascending
// distance order — the prefetched set R — followed by their influential
// neighbor set I(R) in the order the frontier holds it (no particular
// order), and onto ds the squared distance q.Dist2(ix.Point(id)) of each
// object it appends to dst, at the same offset. It returns the two extended
// slices, the number of members of R appended (fewer than m only when the
// index holds fewer objects) and what finding the nearest object cost.
//
// I(R) costs nothing beyond R: the best-first expansion marks every
// Voronoi neighbor of each object it takes, so once R is complete the
// objects reached but not taken are exactly N(R) \ R = I(R), and they are
// sitting in the frontier with their distances, which the expansion had to
// evaluate to order it.
//
// hint names an object believed to be near q (NoHint for none) — a moving
// query passes the nearest object of its previous result. A hint that is
// live in this index version starts the greedy walk over Voronoi neighbors
// in place of the entry grid; a removed, never-assigned or far-away hint
// falls back to the grid. Either way the walk ends at the exact nearest
// object, and the result is the same. nearest says the caller proved hint
// the nearest live object to q: a live hint then starts the expansion
// itself, with no walk, where the walk would have stopped at once.
func (ix *Index) AppendPrefetch(q geom.Point, m, hint int, nearest bool, dst []int, ds []float64, sc *SearchScratch) (ids []int, d2 []float64, nR int, cost SearchCost) {
	base := len(dst)
	dst, ds, cost = ix.expand(q, m, hint, nearest, dst, ds, sc)
	nR = len(dst) - base
	for _, e := range sc.pq {
		dst = append(dst, e.id)
		ds = append(ds, e.d2)
	}
	return dst, ds, nR, cost
}

// AppendINS is INS appending onto dst with caller-supplied scratch, for a
// caller that holds a kNN set it did not get from AppendPrefetch.
func (ix *Index) AppendINS(knn []int, dst []int, sc *SearchScratch) ([]int, error) {
	for _, id := range knn {
		if !ix.Contains(id) {
			return dst, fmt.Errorf("vortree: INS of %v: unknown id %d", knn, id)
		}
	}
	sc.beginVisit()
	for _, id := range knn {
		sc.visit(id)
	}
	start := len(dst)
	for _, id := range knn {
		nb, err := ix.diag.AppendNeighbors(id, sc.nb[:0], &sc.ring)
		sc.nb = nb[:0]
		if err != nil {
			return dst[:start], fmt.Errorf("vortree: INS of %v: %w", knn, err)
		}
		for _, u := range nb {
			if sc.visit(u) {
				dst = append(dst, u)
			}
		}
	}
	sort.Ints(dst[start:])
	return dst, nil
}

// expand appends the k nearest objects to q onto dst, and their squared
// distances onto ds, by best-first expansion over Voronoi neighbor lists
// from the nearest object — hint itself when nearest vouches for it and it
// is live — and leaves in sc.pq the objects it reached but did not take.
func (ix *Index) expand(q geom.Point, k, hint int, nearest bool, dst []int, ds []float64, sc *SearchScratch) ([]int, []float64, SearchCost) {
	sc.pq = sc.pq[:0]
	if k <= 0 || ix.Len() == 0 {
		return dst, ds, SearchCost{}
	}
	start, cost := hint, SearchCost{}
	if !nearest || !ix.Contains(hint) {
		start, cost.NodeVisits, cost.SeedDists = ix.diag.NearestFrom(q, hint, maxSeedHops, &sc.ring)
	}
	sc.beginVisit()
	sc.visit(start)
	sc.pq.push(nnEntry{id: start, d2: q.Dist2(ix.diag.Site(start))})
	need := len(dst) + k
	for len(sc.pq) > 0 && len(dst) < need {
		e := sc.pq.pop()
		dst = append(dst, e.id)
		ds = append(ds, e.d2)
		nb, err := ix.diag.AppendNeighbors(e.id, sc.nb[:0], &sc.ring)
		sc.nb = nb[:0]
		if err != nil {
			continue
		}
		for _, u := range nb {
			if sc.visit(u) {
				sc.pq.push(nnEntry{id: u, d2: q.Dist2(ix.diag.Site(u))})
			}
		}
	}
	return dst, ds, cost
}

type nnEntry struct {
	id int
	d2 float64
}

// nnHeap is a hand-rolled binary min-heap; container/heap would box every
// nnEntry pushed, one allocation per expanded Voronoi neighbor. pop need
// not zero the vacated slot because nnEntry holds no pointers.
type nnHeap []nnEntry

func (h nnHeap) less(i, j int) bool {
	if h[i].d2 != h[j].d2 {
		return h[i].d2 < h[j].d2
	}
	return h[i].id < h[j].id
}

func (h *nnHeap) push(e nnEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *nnHeap) pop() nnEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s.less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
