package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// EngineBenchResult is the serving-engine benchmark record written to
// BENCH_engine.json by `bench -exp ENGINE`. It tracks the three numbers
// the snapshot architecture is accountable for across PRs: tail update
// latency, allocation rate on the serving path, and resident index memory
// (which must stay O(objects), independent of the shard count).
type EngineBenchResult struct {
	Shards   int `json:"shards"`
	Sessions int `json:"sessions"`
	Objects  int `json:"objects"`
	K        int `json:"k"`

	Steps       int     `json:"steps"`
	DataUpdates int     `json:"data_updates"`
	Updates     uint64  `json:"updates"`
	UpdatesSec  float64 `json:"updates_per_sec"`

	P50UpdateUS float64 `json:"p50_update_us"`
	P95UpdateUS float64 `json:"p95_update_us"`
	P99UpdateUS float64 `json:"p99_update_us"`

	AllocsPerUpdate    float64 `json:"allocs_per_update"`
	ResidentIndexBytes uint64  `json:"resident_index_bytes"`
	SnapshotsLive      int     `json:"snapshots_live"`
	RecomputePct       float64 `json:"recompute_pct"`

	// EpochPublishUS is the mean wall time of publishing one data-update
	// epoch during the run. SharedNodeRatio is the fraction of plane index
	// nodes the latest epoch shares with its predecessor (path-copying
	// publication; a full clone would be 0). The sublinearity probe times
	// one single-insert epoch against stores of Objects/8 and Objects
	// objects: with path copying PublishScalingX8 stays far below the 8x
	// a deep-clone publication pays.
	EpochPublishUS   float64 `json:"epoch_publish_us"`
	SharedNodeRatio  float64 `json:"shared_node_ratio"`
	PublishUSSmall   float64 `json:"publish_us_small"`
	PublishUSLarge   float64 `json:"publish_us_large"`
	PublishScalingX8 float64 `json:"publish_scaling_x8"`
}

// String renders the result as a short table for the harness output.
func (r EngineBenchResult) String() string {
	return fmt.Sprintf(
		"ENGINE shards=%d sessions=%d objects=%d steps=%d churn=%d\n"+
			"       updates=%d rate=%.0f/s p50=%.1fus p95=%.1fus p99=%.1fus\n"+
			"       allocs/update=%.1f index_bytes=%d snapshots=%d recompute=%.2f%%\n"+
			"       publish=%.1fus shared_nodes=%.1f%% scaling_x8=%.2f (%.1fus -> %.1fus)",
		r.Shards, r.Sessions, r.Objects, r.Steps, r.DataUpdates,
		r.Updates, r.UpdatesSec, r.P50UpdateUS, r.P95UpdateUS, r.P99UpdateUS,
		r.AllocsPerUpdate, r.ResidentIndexBytes, r.SnapshotsLive, r.RecomputePct,
		r.EpochPublishUS, 100*r.SharedNodeRatio, r.PublishScalingX8, r.PublishUSSmall, r.PublishUSLarge)
}

// mutate applies one object mutation as a one-entry engine batch and
// returns its id.
func mutate(e *engine.Engine, m index.Mutation) (int, error) {
	ids, err := e.ApplyMutations(context.Background(), []index.Mutation{m})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}

// publishProbeUS builds a store of n objects and returns the mean wall
// time (µs) of a single-mutation epoch publication over rounds
// insert+remove pairs.
func publishProbeUS(n, rounds int, seed int64) (float64, error) {
	st, err := index.NewStore(index.Config{Bounds: Bounds, Objects: workload.Uniform(n, Bounds, seed)})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for i := 0; i < rounds/4; i++ { // warm up the page tables and the branch chain
		id, err := st.Insert(geom.Pt(float64((i*29)%9973)+1, float64((i*31)%9941)+1))
		if err != nil {
			return 0, err
		}
		if err := st.Remove(id); err != nil {
			return 0, err
		}
	}
	pubs0, total0 := st.PublishStats()
	for i := 0; i < rounds; i++ {
		id, err := st.Insert(geom.Pt(float64((i*131)%9973)+1, float64((i*373)%9941)+1))
		if err != nil {
			return 0, err
		}
		if err := st.Remove(id); err != nil {
			return 0, err
		}
	}
	pubs, total := st.PublishStats()
	return float64((total - total0).Nanoseconds()) / 1e3 / float64(pubs-pubs0), nil
}

// EngineBench drives the serving engine with a closed-loop batched
// workload (random-waypoint sessions, periodic object churn) and measures
// the serving trajectory numbers. Scale divides sessions and steps.
func EngineBench(cfg Config) (EngineBenchResult, error) {
	const (
		objects  = 20000
		k        = 5
		rho      = 1.6
		shards   = 8
		batchLen = 64
	)
	sessions := 2000
	steps := 120
	if cfg.Scale > 1 {
		sessions /= cfg.Scale
		steps /= cfg.Scale
	}

	pts := workload.Uniform(objects, Bounds, cfg.seed(42))
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := engine.New(engine.Config{Shards: shards, Bounds: Bounds, Objects: pts})
	if err != nil {
		return EngineBenchResult{}, err
	}
	defer e.Close()
	runtime.GC()
	var afterBuild runtime.MemStats
	runtime.ReadMemStats(&afterBuild)
	indexBytes := afterBuild.HeapAlloc - before.HeapAlloc

	sids := make([]engine.SessionID, sessions)
	trajs := make([][]geom.Point, sessions)
	for i := range sids {
		sid, err := e.CreateSession(k, rho)
		if err != nil {
			return EngineBenchResult{}, err
		}
		sids[i] = sid
		trajs[i] = trajectory.RandomWaypoint(Bounds, steps, 8, cfg.seed(int64(i)))
	}

	var mallocsBefore runtime.MemStats
	runtime.ReadMemStats(&mallocsBefore)
	start := time.Now()
	churn := 0
	var inserted []int
	for s := 0; s < steps; s++ {
		// Object churn: one data update every four steps.
		if s%4 == 1 {
			if len(inserted) > 8 {
				if _, err := mutate(e, index.Mutation{ID: inserted[0]}); err != nil {
					return EngineBenchResult{}, err
				}
				inserted = inserted[1:]
			} else {
				id, err := mutate(e, index.Mutation{Insert: true, P: geom.Pt(float64((s*131)%10000), float64((s*373)%10000))})
				if err != nil {
					return EngineBenchResult{}, err
				}
				inserted = append(inserted, id)
			}
			churn++
		}
		for lo := 0; lo < sessions; lo += batchLen {
			hi := min(lo+batchLen, sessions)
			batch := make([]engine.LocationUpdate, hi-lo)
			for i := lo; i < hi; i++ {
				batch[i-lo] = engine.LocationUpdate{Session: sids[i], Pos: trajs[i][s]}
			}
			results, err := e.UpdateBatchCtx(context.Background(), batch)
			if err != nil {
				return EngineBenchResult{}, err
			}
			for _, r := range results {
				if r.Err != nil {
					return EngineBenchResult{}, r.Err
				}
			}
		}
	}
	elapsed := time.Since(start)
	var mallocsAfter runtime.MemStats
	runtime.ReadMemStats(&mallocsAfter)

	st, err := e.Stats()
	if err != nil {
		return EngineBenchResult{}, err
	}
	// Publication sublinearity probe: one single-insert epoch against an
	// 8x smaller and the full-size object set.
	pubSmall, err := publishProbeUS(objects/8, 64, cfg.seed(43))
	if err != nil {
		return EngineBenchResult{}, err
	}
	pubLarge, err := publishProbeUS(objects, 64, cfg.seed(44))
	if err != nil {
		return EngineBenchResult{}, err
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	res := EngineBenchResult{
		Shards:             st.Shards,
		Sessions:           sessions,
		Objects:            objects,
		K:                  k,
		Steps:              steps,
		DataUpdates:        churn,
		Updates:            st.Updates,
		UpdatesSec:         float64(st.Updates) / elapsed.Seconds(),
		P50UpdateUS:        us(st.Latency.P50),
		P95UpdateUS:        us(st.Latency.P95),
		P99UpdateUS:        us(st.Latency.P99),
		AllocsPerUpdate:    float64(mallocsAfter.Mallocs-mallocsBefore.Mallocs) / float64(max(int(st.Updates), 1)),
		ResidentIndexBytes: indexBytes,
		SnapshotsLive:      st.Snapshots,
		RecomputePct:       100 * float64(st.Counters.Recomputations) / float64(max(st.Counters.Timestamps, 1)),
		EpochPublishUS:     st.EpochPublishUS,
		PublishUSSmall:     pubSmall,
		PublishUSLarge:     pubLarge,
	}
	if pubSmall > 0 {
		res.PublishScalingX8 = pubLarge / pubSmall
	}
	if st.IndexNodes > 0 {
		res.SharedNodeRatio = 1 - float64(st.IndexNodesCopied)/float64(st.IndexNodes)
	}
	return res, nil
}
