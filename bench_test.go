// Benchmarks regenerating the experiment tables of EXPERIMENTS.md. Each
// benchmark drives one experiment configuration; one benchmark op is one
// query-object location update (timestamp), so ns/op is the per-step
// processing cost the paper's efficiency claims are about. Recomputation
// (communication) frequency and shipped-object volume are attached as
// custom metrics (recomp/step, shipped/step).
//
// The tables themselves (full sweeps with aligned rows) are produced by
// cmd/bench; these benchmarks pin the same code paths into `go test
// -bench` so regressions show up in standard tooling.
package insq_test

import (
	"math/rand"
	"testing"

	insq "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/rtree"
)

var benchBounds = insq.NewRect(insq.Pt(0, 0), insq.Pt(10000, 10000))

// planeBench drives a plane processor along a random-waypoint trajectory,
// one b.N iteration per location update.
func planeBench(b *testing.B, mk func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error), n int) {
	b.Helper()
	ix, _, err := insq.BuildPlaneIndex(benchBounds, insq.UniformPoints(n, benchBounds, 7))
	if err != nil {
		b.Fatal(err)
	}
	p, err := mk(ix)
	if err != nil {
		b.Fatal(err)
	}
	traj := insq.RandomWaypoint(benchBounds, 8192, 8, 9)
	before := *p.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Update(traj[i%len(traj)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := *p.Metrics()
	steps := float64(b.N)
	b.ReportMetric(float64(after.Recomputations-before.Recomputations)/steps, "recomp/step")
	b.ReportMetric(float64(after.ObjectsShipped-before.ObjectsShipped)/steps, "shipped/step")
}

// BenchmarkE1Fig1 regenerates the Figure 1 computation: 3NN, INS and MIS
// of the fixed 12-object configuration.
func BenchmarkE1Fig1(b *testing.B) {
	ix, _, err := insq.BuildPlaneIndex(experiments.Fig1Bounds, experiments.Fig1Points)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn := ix.KNN(experiments.Fig1Q, 3)
		ins, err := ix.INS(knn)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ix.MIS(knn, ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Fig2 regenerates the Figure 2 computation: network kNN and
// INS on a small road network.
func BenchmarkE2Fig2(b *testing.B) {
	g, err := insq.RandomPlanarNetwork(40, benchBounds, 0.5, 0.2, 102)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(103))
	sites := rng.Perm(40)[:12]
	d, err := insq.BuildNetworkVoronoi(g, sites)
	if err != nil {
		b.Fatal(err)
	}
	pos := insq.VertexPosition(sites[4])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn := d.KNN(pos, 2)
		if _, err := d.INS(knn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Fig4 regenerates the Figure 4 scenario: k=5, ρ=1.6 query
// maintenance on a 200-object space (dense invalidations).
func BenchmarkE3Fig4(b *testing.B) {
	ix, _, err := insq.BuildPlaneIndex(experiments.Fig1Bounds,
		insq.UniformPoints(200, experiments.Fig1Bounds, 14))
	if err != nil {
		b.Fatal(err)
	}
	q, err := insq.NewPlaneQuery(ix, 5, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	traj := insq.RandomWaypoint(experiments.Fig1Bounds, 8192, 0.5, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Update(traj[i%len(traj)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4E5 sweeps k for every processor: per-step cost (ns/op, the E5
// series) and recomputation/communication frequency (custom metrics, the
// E4 series). The exact order-k cell baseline runs at k ≤ 8; above that
// its construction is the story, not a benchmark.
func BenchmarkE4E5(b *testing.B) {
	const n = 10000
	for _, k := range []int{1, 4, 8, 16} {
		k := k
		b.Run(rowName("k", k)+"/ins", func(b *testing.B) {
			planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
				return insq.NewPlaneQuery(ix, k, 1.6)
			}, n)
		})
		b.Run(rowName("k", k)+"/vstar", func(b *testing.B) {
			planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
				return insq.NewVStarPlane(ix, k, 4)
			}, n)
		})
		if k <= 8 {
			b.Run(rowName("k", k)+"/orderk-cell", func(b *testing.B) {
				planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
					return insq.NewOrderKCellPlane(ix, k, false)
				}, n)
			})
		}
		b.Run(rowName("k", k)+"/naive", func(b *testing.B) {
			planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
				return insq.NewNaivePlane(ix, k)
			}, n)
		})
	}
}

// BenchmarkE6PrefetchRatio sweeps ρ at k=8: the communication /
// recomputation trade-off knob of Section III.
func BenchmarkE6PrefetchRatio(b *testing.B) {
	for _, rho := range []float64{1.0, 1.2, 1.6, 2.0, 3.0} {
		rho := rho
		b.Run(rowNameF("rho", rho), func(b *testing.B) {
			planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
				return insq.NewPlaneQuery(ix, 8, rho)
			}, 10000)
		})
	}
}

// BenchmarkE7DatasetSize sweeps n at k=8 for the INS processor.
func BenchmarkE7DatasetSize(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		n := n
		b.Run(rowName("n", n), func(b *testing.B) {
			planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
				return insq.NewPlaneQuery(ix, 8, 1.6)
			}, n)
		})
	}
}

// networkBench drives a network processor along a random-walk route.
func networkBench(b *testing.B, mk func(d *insq.NetworkVoronoi) (insq.NetworkProcessor, error)) {
	b.Helper()
	g, err := insq.GridNetwork(64, 64, benchBounds, 0.25, 0.3, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(88))
	sites := rng.Perm(g.NumVertices())[:2000]
	d, err := insq.BuildNetworkVoronoi(g, sites)
	if err != nil {
		b.Fatal(err)
	}
	p, err := mk(d)
	if err != nil {
		b.Fatal(err)
	}
	route, err := insq.RandomWalkRoute(g, 0, 1e7, 89)
	if err != nil {
		b.Fatal(err)
	}
	const stepLen = 40
	before := *p.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := float64(i) * stepLen
		for dist > route.Length() {
			dist -= route.Length()
		}
		if _, err := p.Update(route.PositionAt(dist)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := *p.Metrics()
	steps := float64(b.N)
	b.ReportMetric(float64(after.Recomputations-before.Recomputations)/steps, "recomp/step")
	b.ReportMetric(float64(after.EdgeRelaxations-before.EdgeRelaxations)/steps, "relax/step")
}

// BenchmarkE8Network sweeps k on the 64×64 grid network (2000 objects).
func BenchmarkE8Network(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		k := k
		b.Run(rowName("k", k)+"/ins-network", func(b *testing.B) {
			networkBench(b, func(d *insq.NetworkVoronoi) (insq.NetworkProcessor, error) {
				return insq.NewNetworkQuery(d, k, 1.6)
			})
		})
		b.Run(rowName("k", k)+"/naive-network", func(b *testing.B) {
			networkBench(b, func(d *insq.NetworkVoronoi) (insq.NetworkProcessor, error) {
				return insq.NewNaiveNetwork(d, k)
			})
		})
	}
}

// BenchmarkE9Theorem2 isolates the subnetwork-vs-full-network validation
// cost: identical INS logic, different validation search space.
func BenchmarkE9Theorem2(b *testing.B) {
	b.Run("subnetwork", func(b *testing.B) {
		networkBench(b, func(d *insq.NetworkVoronoi) (insq.NetworkProcessor, error) {
			return insq.NewNetworkQuery(d, 8, 1.6)
		})
	})
	b.Run("full-network", func(b *testing.B) {
		networkBench(b, func(d *insq.NetworkVoronoi) (insq.NetworkProcessor, error) {
			return insq.NewFullNetworkINS(d, 8, 1.6)
		})
	})
}

// BenchmarkE11Updates measures query maintenance with one data-object
// insert or delete every 20 steps, each advanced over and repaired eagerly
// (Advance, Refresh).
func BenchmarkE11Updates(b *testing.B) {
	st, err := index.NewStore(index.Config{Bounds: benchBounds, Objects: insq.UniformPoints(10000, benchBounds, 11)})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	q, err := core.NewPlaneQuery(st.Current().Plane(), 8, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	traj := insq.RandomWaypoint(benchBounds, 8192, 8, 111)
	rng := rand.New(rand.NewSource(112))
	var inserted []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Update(traj[i%len(traj)]); err != nil {
			b.Fatal(err)
		}
		if i%20 != 10 {
			continue
		}
		if rng.Intn(2) == 0 || len(inserted) == 0 {
			id, err := st.Insert(insq.Pt(rng.Float64()*10000, rng.Float64()*10000))
			if err != nil {
				b.Fatal(err)
			}
			inserted = append(inserted, id)
		} else {
			j := rng.Intn(len(inserted))
			if err := st.Remove(inserted[j]); err != nil {
				b.Fatal(err)
			}
			inserted = append(inserted[:j], inserted[j+1:]...)
		}
		next := st.Current()
		ops, covered := st.OpsSince(q.Epoch(), next.Epoch())
		q.Advance(next, ops, covered)
		if _, _, err := q.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Precompute measures the order-k Voronoi diagram
// precomputation (reference [2]) whose cost the paper argues is
// impractical; one op is one full enumeration.
func BenchmarkE12Precompute(b *testing.B) {
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	ix, _, err := insq.BuildPlaneIndex(bounds, insq.UniformPoints(500, bounds, 12))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(rowName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := insq.NewPrecomputedOrderKPlane(ix, k)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(q.NumCells), "cells")
			}
		})
	}
}

// BenchmarkAblationRerank measures what the local re-rank path saves.
func BenchmarkAblationRerank(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "with-rerank"
		if disable {
			name = "without-rerank"
		}
		b.Run(name, func(b *testing.B) {
			planeBench(b, func(ix *insq.PlaneIndex) (insq.PlaneProcessor, error) {
				q, err := insq.NewPlaneQuery(ix, 8, 1.6)
				if err != nil {
					return nil, err
				}
				q.SetDisableLocalRerank(disable)
				return q, nil
			}, 10000)
		})
	}
}

// BenchmarkAblationVorTreeKNN compares the plane index's kNN (a walk from
// the entry grid + Voronoi expansion) against plain best-first R-tree kNN.
func BenchmarkAblationVorTreeKNN(b *testing.B) {
	pts := insq.UniformPoints(50000, benchBounds, 22)
	ix, ids, err := insq.BuildPlaneIndex(benchBounds, pts)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{ID: ids[i], P: p}
	}
	tree := rtree.BulkLoad(16, items)
	qs := insq.RandomWaypoint(benchBounds, 1024, 50, 122)
	b.Run("vortree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.KNN(qs[i%len(qs)], 13)
		}
	})
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.KNN(qs[i%len(qs)], 13)
		}
	})
}

func rowName(k string, v int) string {
	return k + "=" + itoa(v)
}

func rowNameF(k string, v float64) string {
	switch v {
	case 1.0:
		return k + "=1.0"
	case 1.2:
		return k + "=1.2"
	case 1.6:
		return k + "=1.6"
	case 2.0:
		return k + "=2.0"
	case 3.0:
		return k + "=3.0"
	}
	return k
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
