// Command server walks through the concurrent MkNN serving engine — the
// online counterpart of examples/fleet. It starts an in-process engine
// (the same subsystem cmd/insqd fronts with HTTP), registers a block of
// moving-client sessions, drives them with batched location updates while
// the object set churns underneath, and prints the aggregated serving
// stats: INS cost counters, per-update latency quantiles, and throughput.
//
// For the networked version of this flow, run `insqd` and drive it over
// HTTP (see cmd/insqd), or run `bash benchmark/run.sh --workload
// serve_pipeline`.
package main

import (
	"context"
	"fmt"
	"log"

	insq "repro"
)

func main() {
	const (
		objects  = 20000
		sessions = 500
		shards   = 8
		steps    = 50
		k        = 5
		rho      = 1.6
	)
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(10000, 10000))

	// The engine pins each session to a shard for parallel serving; all
	// shards read one shared, epoch-versioned index snapshot, so memory
	// stays O(objects) no matter how many shards run.
	e, err := insq.NewEngine(insq.EngineConfig{
		Shards:  shards,
		Bounds:  bounds,
		Objects: insq.UniformPoints(objects, bounds, 42),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	sids := make([]insq.SessionID, sessions)
	trajs := make([][]insq.Point, sessions)
	for i := range sids {
		if sids[i], err = e.CreateSession(k, rho); err != nil {
			log.Fatal(err)
		}
		trajs[i] = insq.RandomWaypoint(bounds, steps, 8, int64(i))
	}

	// One batched request per timestamp, carrying every client's location
	// update; the engine fans it out to the shards and gathers results.
	// Every tenth step also mutates the object set: affected sessions are
	// invalidated and recompute lazily, the rest never notice.
	ctx := context.Background()
	var churned []int
	for s := 0; s < steps; s++ {
		batch := make([]insq.LocationUpdate, sessions)
		for i := range sids {
			batch[i] = insq.LocationUpdate{Session: sids[i], Pos: trajs[i][s]}
		}
		results, err := e.UpdateBatchCtx(ctx, batch)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				log.Fatalf("session %d: %v", r.Session, r.Err)
			}
		}
		if s%10 == 5 {
			ids, err := e.ApplyMutations(ctx, []insq.Mutation{{Insert: true, P: insq.Pt(float64(s)*37, float64(s)*91)}})
			if err != nil {
				log.Fatal(err)
			}
			churned = append(churned, ids[0])
		}
		if len(churned) > 2 {
			if _, err := e.ApplyMutations(ctx, []insq.Mutation{{ID: churned[0]}}); err != nil {
				log.Fatal(err)
			}
			churned = churned[1:]
		}
	}

	st, err := e.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d sessions x %d steps on %d shards\n", sessions, steps, shards)
	fmt.Printf("location updates:  %d (%.0f/sec)\n", st.Updates, st.UpdatesPerSec)
	fmt.Printf("data updates:      %d epochs (%d live index snapshots)\n", st.Epoch, st.Snapshots)
	fmt.Printf("update latency:    %v\n", st.Latency)
	fmt.Printf("recomputations:    %d (%.2f%% of updates; naive recomputes all)\n",
		st.Counters.Recomputations,
		100*float64(st.Counters.Recomputations)/float64(st.Counters.Timestamps))
	fmt.Printf("objects shipped:   %d (%.2f per update)\n",
		st.Counters.ObjectsShipped,
		float64(st.Counters.ObjectsShipped)/float64(st.Counters.Timestamps))
}
