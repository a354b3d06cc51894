package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/metrics"
)

// ErrInvalidPosition is returned, wrapped, by an Update whose position is
// not one the query's space has: a plane point with a NaN or infinite
// coordinate, a network position off the graph. Nothing is counted or
// changed.
var ErrInvalidPosition = errors.New("core: invalid position")

// session is the INS lifecycle a query runs the same way on both metrics,
// over positions of type P with search scratch S: its parameters and
// counters, the epoch of the index it reads, the client state and the last
// reported position, and the one Advance and Refresh. PlaneQuery and
// NetworkQuery embed it and supply what differs by metric (see metric).
type session[P, S any] struct {
	k   int
	rho float64
	m   metrics.Counters

	// epoch is the version of the index the query reads: the snapshot the
	// last Advance moved it to, 0 before any.
	epoch uint64

	// The client state is one id list: ids = R followed by I(R), as one
	// recomputation ships them, R being ids[:nR]. The kNN set is always
	// R[:k]: a re-rank or a validation permutes R itself. The buffer survives
	// Invalidate; slices returned by Update alias it and are rewritten by the
	// next Update/Advance/Refresh, which is the package's slice-ownership
	// contract.
	ids []int
	nR  int

	// sc is the search working memory: the engine's per-shard scratch (see
	// UseScratch), or one the query allocates at its first search.
	sc *S

	last    P    // the last position reported; meaningful once located
	init    bool // the client state is held
	located bool // Update has been called at least once
	network bool // the query's objects are the store's network sites
}

// metric is what a query over one metric supplies to its session's
// lifecycle.
type metric[P any] interface {
	// affects judges one op of the metric's kind from the store's log,
	// conservative ones included, against the index the query still reads:
	// whether it can change the client state. It is called for every op of
	// an Advance's window, held state or not, so it may judge what else the
	// query keeps.
	affects(op *index.Op) bool
	// read points the query at next's index once the window's ops, passed
	// on, have been judged against the old one.
	read(next *index.Snapshot, ops []index.Op, covered bool)
	// recompute fetches R and I(R) afresh at pos. It invalidates first, so a
	// failure leaves no stale state behind.
	recompute(pos P) error
	// Invalidate discards the client state, settling first what the metric
	// keeps beside it that still needs the index the query reads.
	Invalidate()
}

// lagged stands for a window the store's log no longer covers: one
// conservative op of each metric, which every session takes as touching
// all it holds.
var lagged = [...]index.Op{{Conservative: true}, {Conservative: true, Network: true}}

func newSession[P, S any](k int, rho float64, network bool) (session[P, S], error) {
	if k < 1 {
		return session[P, S]{}, fmt.Errorf("core: k = %d, must be >= 1", k)
	}
	if math.IsNaN(rho) || math.IsInf(rho, 0) || rho < 1 {
		return session[P, S]{}, fmt.Errorf("core: prefetch ratio rho = %g, must be finite and >= 1", rho)
	}
	return session[P, S]{k: k, rho: rho, network: network}, nil
}

// UseScratch makes the query run its index searches through the given
// shared scratch instead of allocating its own. The serving engine passes
// one scratch per shard: a shard's sessions run serially on its worker
// goroutine, so sharing is race-free, and what a scratch keeps between
// searches (the plane's visited set, the network's hashed distances; the
// endpoint-table store a network scratch points at outlives every call and
// may be shared by every shard) is paid for once per shard rather than once
// per session. Nothing in it belongs to a session between two calls.
func (s *session[P, S]) UseScratch(sc *S) {
	if sc != nil {
		s.sc = sc
	}
}

// scratch returns the search working memory, allocating the query's own on
// first use when no shared one was supplied.
func (s *session[P, S]) scratch() *S {
	if s.sc == nil {
		s.sc = new(S)
	}
	return s.sc
}

// advance moves the query to snapshot next, ops being the store's log of the
// window between the index it reads and next (Store.OpsSince) and covered
// whether the log still reaches back that far. If any op of the query's
// metric in the window can affect the client state, as m judges it, or
// cannot be judged (a conservative op, or a window the log no longer
// covers), the state is invalidated and the next Update recomputes;
// otherwise it carries over unchanged, which is the paper's lazy
// invalidation. The ops are judged against the old index, where every guard
// object is still live, and only then does the query read next's.
func (s *session[P, S]) advance(m metric[P], next *index.Snapshot, ops []index.Op, covered bool) {
	judged := ops
	if !covered {
		judged = lagged[:]
	}
	for i := range judged {
		if op := &judged[i]; op.Network == s.network && (m.affects(op) || op.Conservative) {
			m.Invalidate()
		}
	}
	m.read(next, ops, covered)
	s.epoch = next.Epoch()
}

// refresh turns lazy invalidation into eager repair: when the client state
// is invalidated, it recomputes at the last reported position at once
// instead of at the next location update. A query that never reported a
// position has nothing to recompute.
func (s *session[P, S]) refresh(m metric[P]) (knn []int, recomputed bool, err error) {
	if s.init || !s.located {
		return s.knn(), false, nil
	}
	if err := m.recompute(s.last); err != nil {
		return nil, false, err
	}
	return s.knn(), true, nil
}

// Invalidate discards the client state (R, I(R) and the kNN set) so that
// the next Update recomputes. What a query keeps beside it — the plane's
// hint, the network's edge anchor — depends on the neighbourhood, not on the
// guard set, and stays.
func (s *session[P, S]) Invalidate() {
	s.init = false
	s.ids, s.nR = s.ids[:0], 0
}

// Epoch returns the version of the index the query reads: the epoch of the
// snapshot the last Advance moved it to, 0 before any.
func (s *session[P, S]) Epoch() uint64 { return s.epoch }

// prefetchCap is M = ⌊ρk⌋, at least k: the size of R while the index holds
// that many objects. A ρk past the int range saturates rather than going
// through Go's implementation-defined float-to-int conversion.
func (s *session[P, S]) prefetchCap() int {
	if m := s.rho * float64(s.k); m < math.MaxInt {
		return max(s.k, int(m))
	}
	return math.MaxInt
}

// knn returns the current kNN set, the first k members of R (nil while the
// client state is invalidated).
func (s *session[P, S]) knn() []int {
	if len(s.ids) == 0 {
		return nil
	}
	return s.ids[:s.k]
}

// K returns the query parameter k.
func (s *session[P, S]) K() int { return s.k }

// Rho returns the prefetch ratio.
func (s *session[P, S]) Rho() float64 { return s.rho }

// Metrics returns the accumulated cost counters.
func (s *session[P, S]) Metrics() *metrics.Counters { return &s.m }

// Current returns the current kNN set as a fresh copy; see the package
// slice-ownership contract.
func (s *session[P, S]) Current() []int { return append([]int(nil), s.knn()...) }

// AppendCurrent appends the current kNN set onto dst and returns it — the
// zero-copy accessor for callers that own a reusable buffer (the engine
// shards).
func (s *session[P, S]) AppendCurrent(dst []int) []int { return append(dst, s.knn()...) }

// Prefetched returns the prefetched set R as a fresh copy; its first k
// members are the current kNN set.
func (s *session[P, S]) Prefetched() []int { return append([]int(nil), s.ids[:s.nR]...) }

// INS returns I(R), the influential neighbor set of R, as a fresh copy.
func (s *session[P, S]) INS() []int { return append([]int(nil), s.ids[s.nR:]...) }

// InfluenceSet returns the guard set IS = (R ∪ I(R)) \ kNN, the objects
// whose approach invalidates the kNN set, as a fresh copy.
func (s *session[P, S]) InfluenceSet() []int { return append([]int(nil), s.ids[len(s.knn()):]...) }
