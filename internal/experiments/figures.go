package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/rtree"
	"repro/internal/sim"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

// Fig1Points is the Figure 1 configuration: twelve objects p1..p12 (index
// i holds p_{i+1}) whose order-3 Voronoi structure around Fig1Q matches the
// paper's figure: 3NN = {p4, p6, p7}, MIS = {p3, p5, p10, p12}, and six
// neighboring order-3 cells labeled (6,7,12), (3,6,7), (3,4,7), (4,5,7),
// (4,7,10), (6,7,10).
var Fig1Points = []geom.Point{
	{X: 15.770759, Y: 80.855149}, // p1
	{X: 87.565839, Y: 27.022628}, // p2
	{X: 18.620682, Y: 31.596452}, // p3
	{X: 26.198834, Y: 63.848004}, // p4
	{X: 15.132619, Y: 35.645693}, // p5
	{X: 46.591356, Y: 32.984624}, // p6
	{X: 42.450423, Y: 40.626163}, // p7
	{X: 86.705380, Y: 85.629398}, // p8
	{X: 24.708641, Y: 18.263631}, // p9
	{X: 43.446181, Y: 77.920094}, // p10
	{X: 82.651417, Y: 11.966606}, // p11
	{X: 80.862036, Y: 52.013293}, // p12
}

// Fig1Q is the query location for the Figure 1 configuration.
var Fig1Q = geom.Pt(50, 50)

// Fig1Bounds is the data space of the Figure 1 configuration.
var Fig1Bounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

// E1 reproduces Figure 1: it computes the 3NN set, INS and MIS on the
// fixture and reports them in the paper's 1-based labels.
func E1() ([]Row, error) {
	ix, _, err := vortree.Build(Fig1Bounds, 0, Fig1Points)
	if err != nil {
		return nil, err
	}
	knn := ix.KNN(Fig1Q, 3)
	ins, err := ix.INS(knn)
	if err != nil {
		return nil, err
	}
	mis, err := ix.MIS(knn, ins)
	if err != nil {
		return nil, err
	}
	return []Row{
		{Experiment: "E1", Processor: "fig1", Param: "k=3",
			Extra: fmt.Sprintf("3NN=%v INS=%v MIS=%v (paper: 3NN={4,6,7} MIS={3,5,10,12})",
				labels(knn), labels(ins), labels(mis))},
	}, nil
}

func labels(ids []int) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = id + 1
	}
	return out
}

// E2 reproduces the Figure 2 scenario: an order-2 query on a small road
// network, reporting the kNN set, its network INS, and checking MIS ⊆ INS
// via Theorem 1.
func E2() ([]Row, error) {
	g, err := roadnet.RandomPlanarNetwork(40, Bounds, 0.5, 0.2, 102)
	if err != nil {
		return nil, err
	}
	sites := pickSites(40, 12, 103)
	d, err := netvor.Build(g, sites)
	if err != nil {
		return nil, err
	}
	pos := roadnet.VertexPosition(sites[4])
	knn := d.KNN(pos, 2)
	ins, err := d.INS(knn)
	if err != nil {
		return nil, err
	}
	return []Row{
		{Experiment: "E2", Processor: "fig2", Param: "k=2",
			Extra: fmt.Sprintf("kNN=%v INS=%v (Theorem 1: every possible single-swap entrant is in INS)", knn, ins)},
	}, nil
}

// E3 reproduces the Figure 4 scenario quantitatively: it runs a k=5,
// ρ=1.6 query across a 200-object space and reports how often the kNN set
// was invalidated (the moment the green circle escapes the red circle) and
// how many of those invalidations were repaired locally vs. recomputed.
func E3(cfg Config) ([]Row, error) {
	ix, _, err := vortree.Build(Fig1Bounds,
		16, workload.Uniform(200, Fig1Bounds, cfg.seed(14)))
	if err != nil {
		return nil, err
	}
	q, err := core.NewPlaneQuery(ix, 5, 1.6)
	if err != nil {
		return nil, err
	}
	traj := trajectory.RandomWaypoint(Fig1Bounds, cfg.steps(4000), 0.5, cfg.seed(15))
	rep, err := sim.RunPlane(q, traj, nil)
	if err != nil {
		return nil, err
	}
	m := rep.Counters
	extra := fmt.Sprintf("invalidations=%d locally-repaired=%d recomputed=%d",
		m.Invalidations, m.Invalidations-(m.Recomputations-1), m.Recomputations-1)
	return []Row{reportRow("E3", "k=5,rho=1.6", rep, extra)}, nil
}

// AblationRerank measures what the local re-rank path (update cases
// (i)/(ii)) is worth by disabling it.
func AblationRerank(cfg Config) ([]Row, error) {
	ix, err := planeIndex(10000, cfg.seed(21))
	if err != nil {
		return nil, err
	}
	traj := trajectory.RandomWaypoint(Bounds, cfg.steps(4000), 8, cfg.seed(121))
	var rows []Row
	for _, disable := range []bool{false, true} {
		q, err := core.NewPlaneQuery(ix, 8, 1.6)
		if err != nil {
			return nil, err
		}
		q.SetDisableLocalRerank(disable)
		rep, err := sim.RunPlane(q, traj, nil)
		if err != nil {
			return nil, err
		}
		if disable {
			rep.Name = "ins-norerank"
		}
		rows = append(rows, reportRow("A1", "k=8", rep, ""))
	}
	return rows, nil
}

// AblationVorTree compares computing R with the plane index (a walk from
// the entry grid + Voronoi expansion) against plain best-first R-tree kNN,
// the VoR-tree's seed: "visits" is the cold start's cells and distances,
// against the R-tree's nodes.
func AblationVorTree(cfg Config) ([]Row, error) {
	ix, err := planeIndex(50000, cfg.seed(22))
	if err != nil {
		return nil, err
	}
	traj := trajectory.RandomWaypoint(Bounds, cfg.steps(2000), 50, cfg.seed(122))
	ids := ix.IDs()
	items := make([]rtree.Item, len(ids))
	for i, id := range ids {
		items[i] = rtree.Item{ID: id, P: ix.Point(id)}
	}
	tree := rtree.BulkLoad(16, items)
	var rows []Row
	// knn returns what one search cost.
	run := func(name string, knn func(geom.Point, int) int) Row {
		start := nowMicros()
		visits := 0
		for _, p := range traj {
			visits += knn(p, 13) // ⌊1.6·8⌋
		}
		elapsed := nowMicros() - start
		return Row{
			Experiment: "A2", Processor: name, Param: "k'=13",
			Steps:     len(traj),
			USPerStep: float64(elapsed) / float64(len(traj)),
			Extra:     fmt.Sprintf("nodevisits=%d", visits),
		}
	}
	var sc vortree.SearchScratch
	var buf []int
	rows = append(rows, run("vortree-knn", func(p geom.Point, k int) int {
		var visits int
		buf, visits = ix.AppendKNN(p, k, buf[:0], &sc)
		return visits
	}))
	rows = append(rows, run("rtree-knn", func(p geom.Point, k int) int {
		_, visits := tree.KNN(p, k)
		return visits
	}))
	return rows, nil
}

// AblationOrderKConstruction compares order-k cell construction against all
// outsiders (references [2]/[6]) vs. against INS candidates only.
func AblationOrderKConstruction(cfg Config) ([]Row, error) {
	ix, err := planeIndex(10000, cfg.seed(23))
	if err != nil {
		return nil, err
	}
	traj := trajectory.RandomWaypoint(Bounds, cfg.steps(2000), 8, cfg.seed(123))
	var rows []Row
	for _, assisted := range []bool{false, true} {
		q, err := baseline.NewOrderKCellPlane(ix, 8, assisted)
		if err != nil {
			return nil, err
		}
		rep, err := sim.RunPlane(q, traj, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, reportRow("A3", "k=8", rep, ""))
	}
	return rows, nil
}

func nowMicros() int64 { return time.Now().UnixMicro() }

// E12 reproduces the introduction's argument against precomputing order-k
// Voronoi cells ("unpractical due to the rapid increase in the number of
// order-k Voronoi cells as k increases"): enumerate the full order-k
// diagram for growing k and report cell counts and construction time,
// then compare the precomputed processor's steady-state step cost against
// INS (which needs no precomputation at all).
func E12(cfg Config) ([]Row, error) {
	n := 2000
	if cfg.Scale > 1 {
		n = 1000
	}
	ix, err := planeIndex(n, cfg.seed(12))
	if err != nil {
		return nil, err
	}
	traj := trajectory.RandomWaypoint(Bounds, cfg.steps(2000), 8, cfg.seed(112))
	var rows []Row
	for _, k := range []int{1, 2, 4, 8} {
		pre, err := baseline.NewPrecomputedOrderKPlane(ix, k)
		if err != nil {
			return nil, err
		}
		rep, err := sim.RunPlane(pre, traj, nil)
		if err != nil {
			return nil, fmt.Errorf("E12 k=%d: %w", k, err)
		}
		extra := fmt.Sprintf("cells=%d build=%s", pre.NumCells, pre.BuildTime.Round(time.Millisecond))
		rows = append(rows, reportRow("E12", fmt.Sprintf("k=%d", k), rep, extra))

		ins, err := core.NewPlaneQuery(ix, k, 1.6)
		if err != nil {
			return nil, err
		}
		insRep, err := sim.RunPlane(ins, traj, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, reportRow("E12", fmt.Sprintf("k=%d", k), insRep, "cells=0 build=0s"))
	}
	return rows, nil
}
