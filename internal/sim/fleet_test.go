package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

func TestRunPlaneFleet(t *testing.T) {
	const shards = 4
	const perShard = 5
	var queries []FleetQuery
	for s := 0; s < shards; s++ {
		ix, _, err := vortree.Build(testBounds, 16, workload.Uniform(300, testBounds, int64(s)))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perShard; j++ {
			q, err := core.NewPlaneQuery(ix, 4, 1.6)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, FleetQuery{
				Proc:  q,
				Traj:  trajectory.RandomWaypoint(testBounds, 150, 3, int64(s*100+j)),
				Shard: s,
			})
		}
	}
	reports, err := RunPlaneFleet(queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != shards*perShard {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, rep := range reports {
		if rep.Steps != 150 {
			t.Errorf("query %d ran %d steps", i, rep.Steps)
		}
		if rep.Counters.Recomputations == 0 {
			t.Errorf("query %d never recomputed", i)
		}
	}
}

func TestRunPlaneFleetValidation(t *testing.T) {
	if _, err := RunPlaneFleet([]FleetQuery{{Proc: nil}}, 2); err == nil {
		t.Error("nil processor accepted")
	}
	// workers < 1 is clamped, empty fleet is fine.
	reports, err := RunPlaneFleet(nil, 0)
	if err != nil || len(reports) != 0 {
		t.Errorf("empty fleet: %v, %d reports", err, len(reports))
	}
}

func TestRunPlaneFleetPropagatesErrors(t *testing.T) {
	ix := vortree.New(testBounds)
	q, err := core.NewPlaneQuery(ix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunPlaneFleet([]FleetQuery{{
		Proc: q,
		Traj: trajectory.RandomWaypoint(testBounds, 5, 1, 1),
	}}, 2)
	if err == nil {
		t.Error("expected error from empty index")
	}
}
