package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// NaiveNetwork recomputes the network kNN set by incremental network
// expansion (a fresh bounded Dijkstra) at every timestamp.
type NaiveNetwork struct {
	d   *netvor.Diagram
	k   int
	m   metrics.Counters
	knn []int
}

// NewNaiveNetwork returns the naive road-network processor.
func NewNaiveNetwork(d *netvor.Diagram, k int) (*NaiveNetwork, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k = %d, must be >= 1", k)
	}
	if len(d.Sites()) < k {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewObjects, len(d.Sites()), k)
	}
	return &NaiveNetwork{d: d, k: k}, nil
}

// Name implements the processor contract.
func (q *NaiveNetwork) Name() string { return "naive-network" }

// Metrics returns the accumulated cost counters.
func (q *NaiveNetwork) Metrics() *metrics.Counters { return &q.m }

// Current returns the kNN set from the last Update.
func (q *NaiveNetwork) Current() []int { return q.knn }

// Update recomputes the kNN set with one network expansion.
func (q *NaiveNetwork) Update(pos roadnet.Position) ([]int, error) {
	q.m.Timestamps++
	if err := pos.Validate(q.d.Graph()); err != nil {
		return nil, err
	}
	q.m.Recomputations++
	var relaxed int
	q.knn, _, relaxed = q.d.KNNWithDistancesCounted(pos, q.k)
	q.m.DijkstraRuns++
	q.m.EdgeRelaxations += relaxed
	q.m.ObjectsShipped += len(q.knn)
	if len(q.knn) < q.k {
		return nil, fmt.Errorf("%w: reached %d of %d", ErrTooFewObjects, len(q.knn), q.k)
	}
	return q.knn, nil
}

// FullNetworkINS is the INS algorithm without Theorem 2: identical guard
// sets and update rules as core.NetworkQuery, but every per-timestamp
// validation ranks the guard objects with a Dijkstra on the full network
// instead of the guard subnetwork. It is the ablation that measures what
// Theorem 2 buys (experiment E9).
type FullNetworkINS struct {
	d   *netvor.Diagram
	k   int
	rho float64
	m   metrics.Counters

	init  bool
	r     []int
	ins   []int
	guard []int
	knn   []int
}

// NewFullNetworkINS returns the no-subnetwork INS ablation processor.
func NewFullNetworkINS(d *netvor.Diagram, k int, rho float64) (*FullNetworkINS, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k = %d, must be >= 1", k)
	}
	if rho < 1 {
		return nil, fmt.Errorf("baseline: rho = %g, must be >= 1", rho)
	}
	if len(d.Sites()) < k {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewObjects, len(d.Sites()), k)
	}
	return &FullNetworkINS{d: d, k: k, rho: rho}, nil
}

// Name implements the processor contract.
func (q *FullNetworkINS) Name() string { return "ins-network-full" }

// Metrics returns the accumulated cost counters.
func (q *FullNetworkINS) Metrics() *metrics.Counters { return &q.m }

// Current returns the kNN set from the last Update.
func (q *FullNetworkINS) Current() []int { return q.knn }

func (q *FullNetworkINS) prefetchSize() int {
	m := int(q.rho * float64(q.k))
	if m < q.k {
		m = q.k
	}
	if n := len(q.d.Sites()); m > n {
		m = n
	}
	return m
}

// Update mirrors core.NetworkQuery.Update with full-network validation.
func (q *FullNetworkINS) Update(pos roadnet.Position) ([]int, error) {
	q.m.Timestamps++
	if err := pos.Validate(q.d.Graph()); err != nil {
		return nil, err
	}
	if !q.init {
		if err := q.recompute(pos); err != nil {
			return nil, err
		}
		q.init = true
		return q.knn, nil
	}
	q.m.Validations++
	// Rank all guard objects by true network distance.
	ranked, relaxed := q.rankGuard(pos)
	q.m.DijkstraRuns++
	q.m.EdgeRelaxations += relaxed
	if len(ranked) >= q.k && sameSet(ranked[:q.k], q.knn) {
		return q.knn, nil
	}
	q.m.Invalidations++
	if len(ranked) >= len(q.r) && sameSet(ranked[:len(q.r)], q.r) {
		q.knn = append([]int(nil), ranked[:q.k]...)
		return q.knn, nil
	}
	if err := q.recompute(pos); err != nil {
		return nil, err
	}
	return q.knn, nil
}

// rankGuard returns the guard objects in ascending true network distance
// from a Dijkstra over the whole network, and that search's relaxations: it
// settles every reachable vertex once and scans each one's edges.
func (q *FullNetworkINS) rankGuard(pos roadnet.Position) (ranked []int, relaxed int) {
	g := q.d.Graph()
	dist := g.ShortestDistances(pos.Sources(g), -1)
	for v, dv := range dist {
		if !math.IsInf(dv, 1) {
			relaxed += g.Degree(v)
		}
	}
	ranked = append([]int(nil), q.guard...)
	sort.Slice(ranked, func(i, j int) bool {
		if dist[ranked[i]] != dist[ranked[j]] {
			return dist[ranked[i]] < dist[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	return ranked, relaxed
}

func (q *FullNetworkINS) recompute(pos roadnet.Position) error {
	q.m.Recomputations++
	ids, _, relaxed := q.d.KNNWithDistancesCounted(pos, q.prefetchSize())
	q.m.DijkstraRuns++
	q.m.EdgeRelaxations += relaxed
	if len(ids) < q.k {
		return fmt.Errorf("%w: reached %d of %d", ErrTooFewObjects, len(ids), q.k)
	}
	q.r = ids
	ins, err := q.d.INS(q.r)
	if err != nil {
		return fmt.Errorf("baseline: network INS: %w", err)
	}
	q.ins = ins
	q.guard = append(append([]int(nil), q.r...), q.ins...)
	q.knn = append([]int(nil), q.r[:q.k]...)
	q.m.ObjectsShipped += len(q.r) + len(q.ins)
	return nil
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]int, len(a))
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		if m[x] == 0 {
			return false
		}
		m[x]--
	}
	return true
}
