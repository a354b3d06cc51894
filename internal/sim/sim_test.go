package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// The core and baseline processors must satisfy the simulator contracts.
var (
	_ PlaneProcessor   = (*core.PlaneQuery)(nil)
	_ PlaneProcessor   = (*baseline.NaivePlane)(nil)
	_ PlaneProcessor   = (*baseline.OrderKCellPlane)(nil)
	_ PlaneProcessor   = (*baseline.VStarPlane)(nil)
	_ NetworkProcessor = (*core.NetworkQuery)(nil)
	_ NetworkProcessor = (*baseline.NaiveNetwork)(nil)
	_ NetworkProcessor = (*baseline.FullNetworkINS)(nil)
)

func TestRunPlane(t *testing.T) {
	ix, _, err := vortree.Build(testBounds, 16, workload.Uniform(500, testBounds, 1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewPlaneQuery(ix, 5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	traj := trajectory.RandomWaypoint(testBounds, 200, 3, 2)
	calls := 0
	rep, err := RunPlane(q, traj, func(step int, pos geom.Point, knn []int) {
		if len(knn) != 5 {
			t.Fatalf("step %d: %d results", step, len(knn))
		}
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 200 || rep.Steps != 200 {
		t.Fatalf("observer calls %d, steps %d; want 200", calls, rep.Steps)
	}
	if rep.Counters.Timestamps != 200 {
		t.Fatalf("counters not scoped: %+v", rep.Counters)
	}
	if rep.Name != "ins" {
		t.Errorf("Name = %q", rep.Name)
	}
	if !strings.Contains(rep.String(), "ins") {
		t.Errorf("String() = %q", rep.String())
	}
	if rep.PerStepMicros() < 0 {
		t.Error("negative per-step time")
	}
}

func TestRunPlaneScopesReusedProcessor(t *testing.T) {
	ix, _, err := vortree.Build(testBounds, 16, workload.Uniform(200, testBounds, 3))
	if err != nil {
		t.Fatal(err)
	}
	q, err := baseline.NewNaivePlane(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	traj := trajectory.RandomWaypoint(testBounds, 100, 3, 4)
	if _, err := RunPlane(q, traj, nil); err != nil {
		t.Fatal(err)
	}
	rep2, err := RunPlane(q, traj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Counters.Recomputations != 100 {
		t.Fatalf("second run counted %d recomputations, want 100", rep2.Counters.Recomputations)
	}
}

func TestRunNetwork(t *testing.T) {
	g, err := roadnet.GridNetwork(10, 10, testBounds, 0.2, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	sites := rng.Perm(g.NumVertices())[:20]
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewNetworkQuery(d, 3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 0, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunNetwork(q, route, 10, func(step int, pos roadnet.Position, knn []int) {
		if len(knn) != 3 {
			t.Fatalf("step %d: %d results", step, len(knn))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps == 0 {
		t.Fatal("no steps simulated")
	}
	if _, err := RunNetwork(q, route, 0, nil); err == nil {
		t.Error("expected error for stepLen=0")
	}
}

func TestRunPlanePropagatesErrors(t *testing.T) {
	ix := vortree.New(testBounds)
	q, err := core.NewPlaneQuery(ix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPlane(q, []geom.Point{{X: 1, Y: 1}}, nil); err == nil {
		t.Error("expected error from empty index")
	}
}
