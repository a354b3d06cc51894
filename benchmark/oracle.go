package main

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// distTol is the tolerance when comparing an answer's sorted distance list
// with the oracle's: ties at the k-th place may legitimately resolve to
// different ids, but never to different distances.
const distTol = 1e-9

// bruteKNNDistances scans every point and returns the k smallest distances
// to q, ascending — the whole oracle for the plane: no index, no pruning.
func bruteKNNDistances(points []geom.Point, q geom.Point, k int) []float64 {
	best := make([]float64, 0, k+1) // squared distances, ascending
	for _, p := range points {
		d := q.Dist2(p)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	for i, d2 := range best {
		best[i] = math.Sqrt(d2)
	}
	return best
}

// answerMatches reports whether got — the ids a session answered with —
// is a correct kNN set given the oracle's ascending distance list: k
// distinct live objects whose sorted distances equal the oracle's within
// distTol. dist returns an object's distance and whether it is live.
func answerMatches(got []int, want []float64, dist func(id int) (float64, bool)) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[int]bool, len(got))
	ds := make([]float64, 0, len(got))
	for _, id := range got {
		d, live := dist(id)
		if !live || seen[id] {
			return false
		}
		seen[id] = true
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	for i := range ds {
		if math.Abs(ds[i]-want[i]) > distTol*math.Max(1, want[i]) {
			return false
		}
	}
	return true
}

// sameIDs reports whether a and b hold the same ids, each exactly once.
func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	left := make(map[int]bool, len(a))
	for _, id := range a {
		left[id] = true
	}
	if len(left) != len(a) {
		return false
	}
	for _, id := range b {
		if !left[id] {
			return false
		}
		delete(left, id)
	}
	return true
}

// oracle checks session answers against the harness model of the data
// set. It is built once per check from the model alone.
type oracle struct {
	in *inputs

	// plane: the live points, densely packed for the scan, and by id.
	dense  []geom.Point
	points map[int]geom.Point

	// network: a diagram built from scratch over the model's live sites,
	// searched with the unpruned reference Dijkstra.
	g    *roadnet.Graph
	diag *netvor.Diagram
}

func newOracle(in *inputs, m *model) (*oracle, error) {
	o := &oracle{in: in}
	if !in.sp.Network {
		o.points = m.points
		o.dense = make([]geom.Point, 0, len(m.points))
		for _, p := range m.points {
			o.dense = append(o.dense, p)
		}
		return o, nil
	}
	g, err := in.graph()
	if err != nil {
		return nil, err
	}
	sites := make([]int, 0, len(m.sites))
	for v := range m.sites {
		sites = append(sites, v)
	}
	sort.Ints(sites)
	o.g = g
	o.diag, err = netvor.Build(g, sites)
	return o, err
}

// correct reports whether got is a right answer for session i standing at
// trajectory index j.
func (o *oracle) correct(i, j int, got []int) bool {
	k := o.in.k[i]
	if !o.in.sp.Network {
		q := o.in.planeAt(i, j)
		want := bruteKNNDistances(o.dense, q, k)
		return answerMatches(got, want, func(id int) (float64, bool) {
			p, ok := o.points[id]
			return q.Dist(p), ok
		})
	}
	pos := o.in.netAt(i, j)
	ids, want := o.diag.OracleKNNWithDistances(pos, k)
	if sameIDs(ids, got) {
		return true
	}
	// Different ids: only acceptable as a tie, so price the answer with a
	// full single-source search.
	all := o.g.ShortestDistances(pos.Sources(o.g), -1)
	return answerMatches(got, want, func(id int) (float64, bool) {
		if id < 0 || id >= len(all) || !o.diag.IsSite(id) {
			return 0, false
		}
		return all[id], true
	})
}

// countWrong checks every session's answer in parallel and returns how
// many are wrong. at[i] is session i's trajectory index, answers[i] its
// kNN ids.
func (o *oracle) countWrong(at []int, answers [][]int) int {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wrong := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(answers); i += workers {
				if !o.correct(i, at[i], answers[i]) {
					wrong[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range wrong {
		total += n
	}
	return total
}
