// Package sim drives moving kNN processors along trajectories and collects
// comparable cost reports. It is the engine behind the demonstration CLI
// (cmd/insq), the experiment harness (cmd/bench) and the benchmark suite:
// every experiment is "run these processors over this trajectory on this
// dataset and report the counters".
package sim

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/roadnet"
)

// PlaneProcessor is a moving kNN processor over 2D Euclidean space.
// core.PlaneQuery and the plane baselines implement it.
type PlaneProcessor interface {
	// Update feeds the query object's position at one timestamp and
	// returns the current kNN set.
	Update(p geom.Point) ([]int, error)
	// Metrics exposes the processor's accumulated cost counters.
	Metrics() *metrics.Counters
	// Name identifies the processor in reports.
	Name() string
}

// NetworkProcessor is a moving kNN processor over a road network.
// core.NetworkQuery and the network baselines implement it.
type NetworkProcessor interface {
	Update(pos roadnet.Position) ([]int, error)
	Metrics() *metrics.Counters
	Name() string
}

// Report summarizes one simulation run.
type Report struct {
	Name     string
	Steps    int
	Duration time.Duration
	Counters metrics.Counters
}

// PerStepMicros returns the average processing time per timestamp in
// microseconds.
func (r Report) PerStepMicros() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Duration.Microseconds()) / float64(r.Steps)
}

// String renders the report as one table row.
func (r Report) String() string {
	return fmt.Sprintf("%-26s steps=%-6d us/step=%-10.2f recomp=%-6d shipped=%-8d dist=%-10d relax=%-10d",
		r.Name, r.Steps, r.PerStepMicros(), r.Counters.Recomputations,
		r.Counters.ObjectsShipped, r.Counters.DistanceCalcs, r.Counters.EdgeRelaxations)
}

// StepFunc observes one simulation step; knn is the processor's current
// result (shared slice: copy before retaining).
type StepFunc func(step int, pos geom.Point, knn []int)

// RunPlane drives a plane processor along a trajectory. The optional
// observer is invoked after every step.
func RunPlane(p PlaneProcessor, traj []geom.Point, observe StepFunc) (Report, error) {
	before := *p.Metrics()
	start := time.Now()
	for i, pos := range traj {
		knn, err := p.Update(pos)
		if err != nil {
			return Report{}, fmt.Errorf("sim: %s step %d: %w", p.Name(), i, err)
		}
		if observe != nil {
			observe(i, pos, knn)
		}
	}
	dur := time.Since(start)
	after := *p.Metrics()
	return Report{Name: p.Name(), Steps: len(traj), Duration: dur, Counters: diff(before, after)}, nil
}

// NetStepFunc observes one network simulation step.
type NetStepFunc func(step int, pos roadnet.Position, knn []int)

// RunNetwork drives a network processor along a route, sampling a position
// every stepLen of network distance.
func RunNetwork(p NetworkProcessor, route *roadnet.Route, stepLen float64, observe NetStepFunc) (Report, error) {
	if stepLen <= 0 {
		return Report{}, fmt.Errorf("sim: stepLen = %g, must be > 0", stepLen)
	}
	before := *p.Metrics()
	start := time.Now()
	step := 0
	for d := 0.0; d <= route.Length(); d += stepLen {
		pos := route.PositionAt(d)
		knn, err := p.Update(pos)
		if err != nil {
			return Report{}, fmt.Errorf("sim: %s step %d: %w", p.Name(), step, err)
		}
		if observe != nil {
			observe(step, pos, knn)
		}
		step++
	}
	dur := time.Since(start)
	after := *p.Metrics()
	return Report{Name: p.Name(), Steps: step, Duration: dur, Counters: diff(before, after)}, nil
}

// diff returns after minus before, so reports are scoped to one run even
// when a processor is reused.
func diff(before, after metrics.Counters) metrics.Counters {
	return metrics.Counters{
		Timestamps:      after.Timestamps - before.Timestamps,
		Validations:     after.Validations - before.Validations,
		Invalidations:   after.Invalidations - before.Invalidations,
		Recomputations:  after.Recomputations - before.Recomputations,
		ObjectsShipped:  after.ObjectsShipped - before.ObjectsShipped,
		DistanceCalcs:   after.DistanceCalcs - before.DistanceCalcs,
		DijkstraRuns:    after.DijkstraRuns - before.DijkstraRuns,
		EdgeRelaxations: after.EdgeRelaxations - before.EdgeRelaxations,
		NodeVisits:      after.NodeVisits - before.NodeVisits,

		AnchoredValidations: after.AnchoredValidations - before.AnchoredValidations,
		AnchorBuilds:        after.AnchorBuilds - before.AnchorBuilds,
		AnchorTableHits:     after.AnchorTableHits - before.AnchorTableHits,
	}
}
