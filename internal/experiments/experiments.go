// Package experiments defines the reproduction experiments E1–E11 listed in
// DESIGN.md: each function builds its workload, runs the competing
// processors, and returns printable rows. cmd/bench prints them and the
// root-level benchmark suite wraps them in testing.B targets, so the tables
// in EXPERIMENTS.md regenerate from exactly this code.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

// Bounds is the data space every Euclidean experiment uses.
var Bounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))

// Row is one line of an experiment table.
type Row struct {
	Experiment string  // e.g. "E4"
	Processor  string  // e.g. "ins"
	Param      string  // swept parameter, e.g. "k=8"
	Steps      int     // timestamps simulated
	Recomps    int     // recomputation (communication) events
	Shipped    int     // objects shipped to the client
	USPerStep  float64 // microseconds per timestamp
	Extra      string  // experiment-specific column

	// Counters are the run's cost counters (zero for the fixture and
	// A2 rows, which run no processor).
	Counters metrics.Counters
}

// String renders the row for the harness output.
func (r Row) String() string {
	return fmt.Sprintf("%-4s %-10s %-26s steps=%-6d recomp=%-6d shipped=%-8d us/step=%-9.2f %s",
		r.Experiment, r.Param, r.Processor, r.Steps, r.Recomps, r.Shipped, r.USPerStep, r.Extra)
}

func reportRow(exp, param string, rep sim.Report, extra string) Row {
	return Row{
		Experiment: exp,
		Processor:  rep.Name,
		Param:      param,
		Steps:      rep.Steps,
		Recomps:    rep.Counters.Recomputations,
		Shipped:    rep.Counters.ObjectsShipped,
		USPerStep:  rep.PerStepMicros(),
		Extra:      extra,
		Counters:   rep.Counters,
	}
}

// Scale shrinks workload sizes for quick runs (1 = paper-scale defaults,
// larger values divide step counts). The benchmark suite uses Scale=4 so
// `go test -bench=.` stays tractable.
type Config struct {
	Scale int
	// Seed offsets every workload seed (datasets, trajectories, churn
	// RNGs) so reruns can probe seed sensitivity; 0 reproduces the
	// canonical published tables. The E1/E2 paper-figure fixtures are
	// seed-independent by construction.
	Seed int64
}

// seed derives a workload seed from its canonical base and the run's
// Seed offset.
func (c Config) seed(base int64) int64 { return base + c.Seed }

func (c Config) steps(n int) int {
	if c.Scale <= 1 {
		return n
	}
	return n / c.Scale
}

// planeIndex builds the shared Euclidean workload.
func planeIndex(n int, seed int64) (*vortree.Index, error) {
	ix, _, err := vortree.Build(Bounds, 16, workload.Uniform(n, Bounds, seed))
	return ix, err
}

// E4E5 sweeps k and reports recomputations, shipped objects (E4) and
// processing time per step (E5) for INS and the baselines.
func E4E5(cfg Config) ([]Row, error) {
	ix, err := planeIndex(10000, cfg.seed(4))
	if err != nil {
		return nil, err
	}
	steps := cfg.steps(4000)
	traj := trajectory.RandomWaypoint(Bounds, steps, 8, cfg.seed(44))
	var rows []Row
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		param := fmt.Sprintf("k=%d", k)
		procs, err := planeProcessors(ix, k, 1.6, 4)
		if err != nil {
			return nil, err
		}
		for _, p := range procs {
			rep, err := sim.RunPlane(p, traj, nil)
			if err != nil {
				return nil, fmt.Errorf("E4 %s %s: %w", param, p.Name(), err)
			}
			rows = append(rows, reportRow("E4", param, rep, ""))
		}
	}
	return rows, nil
}

// planeProcessors builds the standard competitor set. The exact order-k
// cell construction is O(k·n) per recomputation — the construction
// overhead the paper criticizes — and becomes minutes-per-run beyond k=8
// at n=10000, so larger k switch to the INS-assisted construction (the
// output names the variant); its recomputation *frequency* is identical,
// only the construction cost column becomes a lower bound.
func planeProcessors(ix *vortree.Index, k int, rho float64, x int) ([]sim.PlaneProcessor, error) {
	ins, err := core.NewPlaneQuery(ix, k, rho)
	if err != nil {
		return nil, err
	}
	vstar, err := baseline.NewVStarPlane(ix, k, x)
	if err != nil {
		return nil, err
	}
	cell, err := baseline.NewOrderKCellPlane(ix, k, k > 8)
	if err != nil {
		return nil, err
	}
	naive, err := baseline.NewNaivePlane(ix, k)
	if err != nil {
		return nil, err
	}
	return []sim.PlaneProcessor{ins, vstar, cell, naive}, nil
}

// E6 sweeps the prefetch ratio ρ and reports the communication /
// recomputation trade-off it balances.
func E6(cfg Config) ([]Row, error) {
	ix, err := planeIndex(10000, cfg.seed(6))
	if err != nil {
		return nil, err
	}
	steps := cfg.steps(6000)
	traj := trajectory.RandomWaypoint(Bounds, steps, 8, cfg.seed(66))
	var rows []Row
	for _, rho := range []float64{1.0, 1.2, 1.6, 2.0, 3.0} {
		q, err := core.NewPlaneQuery(ix, 8, rho)
		if err != nil {
			return nil, err
		}
		rep, err := sim.RunPlane(q, traj, nil)
		if err != nil {
			return nil, fmt.Errorf("E6 rho=%g: %w", rho, err)
		}
		extra := fmt.Sprintf("shipped/recomp=%.1f",
			float64(rep.Counters.ObjectsShipped)/float64(max(1, rep.Counters.Recomputations)))
		rows = append(rows, reportRow("E6", fmt.Sprintf("rho=%.1f", rho), rep, extra))
	}
	return rows, nil
}

// E7 sweeps the dataset size. The exact order-k cell baseline is capped at
// 10k objects (its construction is quadratic-ish in practice beyond that —
// which is itself the finding).
func E7(cfg Config) ([]Row, error) {
	steps := cfg.steps(3000)
	var rows []Row
	sizes := []int{1000, 5000, 10000, 50000, 100000}
	if cfg.Scale > 1 {
		sizes = []int{1000, 5000, 10000, 50000}
	}
	for _, n := range sizes {
		ix, err := planeIndex(n, cfg.seed(int64(n)))
		if err != nil {
			return nil, err
		}
		traj := trajectory.RandomWaypoint(Bounds, steps, 8, cfg.seed(int64(n)+7))
		param := fmt.Sprintf("n=%d", n)
		ins, err := core.NewPlaneQuery(ix, 8, 1.6)
		if err != nil {
			return nil, err
		}
		vstar, err := baseline.NewVStarPlane(ix, 8, 4)
		if err != nil {
			return nil, err
		}
		naive, err := baseline.NewNaivePlane(ix, 8)
		if err != nil {
			return nil, err
		}
		procs := []sim.PlaneProcessor{ins, vstar, naive}
		if n <= 10000 {
			cell, err := baseline.NewOrderKCellPlane(ix, 8, false)
			if err != nil {
				return nil, err
			}
			procs = append(procs, cell)
		}
		for _, p := range procs {
			rep, err := sim.RunPlane(p, traj, nil)
			if err != nil {
				return nil, fmt.Errorf("E7 %s %s: %w", param, p.Name(), err)
			}
			rows = append(rows, reportRow("E7", param, rep, ""))
		}
	}
	return rows, nil
}

// E8E9 runs the road-network comparison (E8) including the Theorem-2
// ablation (E9): the same INS logic with validation on the full network.
func E8E9(cfg Config) ([]Row, error) {
	netBounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(20000, 20000))
	g, err := roadnet.GridNetwork(64, 64, netBounds, 0.25, 0.3, cfg.seed(8))
	if err != nil {
		return nil, err
	}
	sites := pickSites(g.NumVertices(), 400, cfg.seed(88))
	d, err := netvor.Build(g, sites)
	if err != nil {
		return nil, err
	}
	routeLen := float64(cfg.steps(400000))
	route, err := roadnet.RandomWalkRoute(g, 0, routeLen, cfg.seed(89))
	if err != nil {
		return nil, err
	}
	const stepLen = 40
	var rows []Row
	for _, k := range []int{1, 2, 4, 8, 16} {
		param := fmt.Sprintf("k=%d", k)
		insQ, err := core.NewNetworkQuery(d, k, 1.6)
		if err != nil {
			return nil, err
		}
		fullQ, err := baseline.NewFullNetworkINS(d, k, 1.6)
		if err != nil {
			return nil, err
		}
		naiveQ, err := baseline.NewNaiveNetwork(d, k)
		if err != nil {
			return nil, err
		}
		for _, p := range []sim.NetworkProcessor{insQ, fullQ, naiveQ} {
			rep, err := sim.RunNetwork(p, route, stepLen, nil)
			if err != nil {
				return nil, fmt.Errorf("E8 %s %s: %w", param, p.Name(), err)
			}
			extra := fmt.Sprintf("relax/step=%.0f",
				float64(rep.Counters.EdgeRelaxations)/float64(max(1, rep.Steps)))
			rows = append(rows, reportRow("E8", param, rep, extra))
		}
	}
	return rows, nil
}

func pickSites(nVerts, nSites int, seed int64) []int {
	// Deterministic site sample without importing math/rand at every call
	// site: a simple LCG-shuffled prefix.
	perm := make([]int, nVerts)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := nVerts - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	if nSites > nVerts {
		nSites = nVerts
	}
	out := append([]int(nil), perm[:nSites]...)
	sort.Ints(out)
	return out
}

// E11 sweeps the data-update rate during a moving query. The objects live
// in an index.Store, as a served dataset does, and after every insert or
// removal the query is moved to the new snapshot and repairs itself at once
// (Advance, Refresh).
func E11(cfg Config) ([]Row, error) {
	steps := cfg.steps(3000)
	var rows []Row
	for _, updatesPer100 := range []int{0, 1, 5, 10} {
		st, err := index.NewStore(index.Config{Bounds: Bounds, Objects: workload.Uniform(10000, Bounds, cfg.seed(11))})
		if err != nil {
			return nil, err
		}
		q, err := core.NewPlaneQuery(st.Current().Plane(), 8, 1.6)
		if err != nil {
			return nil, err
		}
		traj := trajectory.RandomWaypoint(Bounds, steps, 8, cfg.seed(111))
		state := uint64(12345 + cfg.Seed)
		rnd := func(n int) int {
			// Use the high bits: the low bits of an LCG cycle with tiny
			// periods (bit 0 alternates every call).
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		rep, err := runPlaneWithUpdates(st, q, traj, updatesPer100, rnd)
		st.Close()
		if err != nil {
			return nil, fmt.Errorf("E11 u=%d: %w", updatesPer100, err)
		}
		rows = append(rows, reportRow("E11", fmt.Sprintf("upd/100=%d", updatesPer100), rep, ""))
	}
	return rows, nil
}

// runPlaneWithUpdates drives the query manually so object inserts/removes
// can be interleaved with location updates.
func runPlaneWithUpdates(st *index.Store, q *core.PlaneQuery, traj []geom.Point, updatesPer100 int,
	rnd func(int) int) (sim.Report, error) {
	interval := 0
	if updatesPer100 > 0 {
		interval = 100 / updatesPer100
	}
	var inserted []int
	start := time.Now()
	for step, pos := range traj {
		if _, err := q.Update(pos); err != nil {
			return sim.Report{}, err
		}
		if interval == 0 || step%interval != interval/2 {
			continue
		}
		if rnd(2) == 0 || len(inserted) == 0 {
			// Insert near the query half the time so updates actually
			// intersect the guard sets; far inserts exercise the cheap
			// no-refresh path.
			p := geom.Pt(
				Bounds.Min.X+float64(rnd(10000)),
				Bounds.Min.Y+float64(rnd(10000)))
			if rnd(2) == 0 {
				p = geom.Pt(
					clampTo(pos.X+float64(rnd(400))-200, Bounds.Min.X, Bounds.Max.X),
					clampTo(pos.Y+float64(rnd(400))-200, Bounds.Min.Y, Bounds.Max.Y))
			}
			id, err := st.Insert(p)
			if err != nil {
				return sim.Report{}, err
			}
			inserted = append(inserted, id)
		} else {
			i := rnd(len(inserted))
			if err := st.Remove(inserted[i]); err != nil {
				return sim.Report{}, err
			}
			inserted = append(inserted[:i], inserted[i+1:]...)
		}
		next := st.Current()
		ops, covered := st.OpsSince(q.Epoch(), next.Epoch())
		q.Advance(next, ops, covered)
		if _, _, err := q.Refresh(); err != nil {
			return sim.Report{}, err
		}
	}
	return sim.Report{
		Name:     "ins+updates",
		Steps:    len(traj),
		Duration: time.Since(start),
		Counters: *q.Metrics(),
	}, nil
}

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
