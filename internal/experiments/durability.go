package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/trajectory"
	"repro/internal/wal"
	"repro/internal/workload"
)

// DurabilityBenchResult is the durability benchmark record written to
// BENCH_wal.json by `bench -exp WAL`. It is self-contained: the same
// process measures the serving rate with and without the write-ahead log,
// so benchguard gates the WAL overhead as a ratio inside one record
// instead of across machines, plus the two absolute costs durability
// adds — the per-batch append and the crash-recovery boot.
type DurabilityBenchResult struct {
	Sessions    int    `json:"sessions"`
	Objects     int    `json:"objects"`
	Steps       int    `json:"steps"`
	DataUpdates int    `json:"data_updates"`
	Policy      string `json:"policy"`

	// BaseUpdatesSec is the serving rate without durability;
	// UpdatesSec the rate with the WAL attached under Policy. The
	// overhead ratio between them is what benchguard -kind wal gates.
	BaseUpdatesSec float64 `json:"base_updates_per_sec"`
	UpdatesSec     float64 `json:"updates_per_sec"`
	OverheadPct    float64 `json:"overhead_pct"`

	// ApplyUSBase / ApplyUSWAL are the mean wall costs of one
	// object-churn batch against a direct store, without and with the
	// log — the isolated append overhead.
	ApplyUSBase float64 `json:"apply_us_base"`
	ApplyUSWAL  float64 `json:"apply_us_wal"`

	AppendedBatches uint64  `json:"appended_batches"`
	AppendedBytes   uint64  `json:"appended_bytes"`
	Fsyncs          uint64  `json:"fsyncs"`
	FsyncMeanUS     float64 `json:"fsync_mean_us"`

	// The crash-recovery probe: batches logged under fsync=always, the
	// manager abandoned (no final checkpoint), and the directory
	// reopened — RecoveryMS is the full boot path (checkpoint load +
	// index rebuild + WAL replay).
	RecoveryObjects   int     `json:"recovery_objects"`
	ReplayedBatches   uint64  `json:"recovery_replayed_batches"`
	ReplayedMutations uint64  `json:"recovery_replayed_mutations"`
	CheckpointBytes   uint64  `json:"checkpoint_bytes"`
	RecoveryMS        float64 `json:"recovery_ms"`
}

// String renders the result as a short table for the harness output.
func (r DurabilityBenchResult) String() string {
	return fmt.Sprintf(
		"WAL    sessions=%d objects=%d steps=%d churn=%d policy=%s\n"+
			"       rate=%.0f/s base=%.0f/s overhead=%.1f%% apply=%.1fus (base %.1fus)\n"+
			"       appended=%d batches / %d bytes, fsyncs=%d (mean %.1fus)\n"+
			"       recovery: %.1fms for %d objects + %d replayed batches (ckpt %d bytes)",
		r.Sessions, r.Objects, r.Steps, r.DataUpdates, r.Policy,
		r.UpdatesSec, r.BaseUpdatesSec, r.OverheadPct, r.ApplyUSWAL, r.ApplyUSBase,
		r.AppendedBatches, r.AppendedBytes, r.Fsyncs, r.FsyncMeanUS,
		r.RecoveryMS, r.RecoveryObjects, r.ReplayedBatches, r.CheckpointBytes)
}

// servingRate drives the EngineBench serving loop (batched random-waypoint
// sessions, object churn every fourth step) against e and returns the
// update rate and churn count.
func servingRate(e *engine.Engine, sessions, steps int, seed int64) (rate float64, churn int, err error) {
	const (
		k        = 5
		rho      = 1.6
		batchLen = 64
	)
	sids := make([]engine.SessionID, sessions)
	trajs := make([][]geom.Point, sessions)
	for i := range sids {
		sid, err := e.CreateSession(k, rho)
		if err != nil {
			return 0, 0, err
		}
		sids[i] = sid
		trajs[i] = trajectory.RandomWaypoint(Bounds, steps, 8, seed+int64(i))
	}
	var inserted []int
	start := time.Now()
	for s := 0; s < steps; s++ {
		if s%4 == 1 {
			if len(inserted) > 8 {
				if _, err := mutate(e, index.Mutation{ID: inserted[0]}); err != nil {
					return 0, 0, err
				}
				inserted = inserted[1:]
			} else {
				id, err := mutate(e, index.Mutation{Insert: true, P: geom.Pt(float64((s*131)%10000), float64((s*373)%10000))})
				if err != nil {
					return 0, 0, err
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
				return 0, 0, err
			}
			for _, r := range results {
				if r.Err != nil {
					return 0, 0, r.Err
				}
			}
		}
	}
	elapsed := time.Since(start)
	st, err := e.Stats()
	if err != nil {
		return 0, 0, err
	}
	return float64(st.Updates) / elapsed.Seconds(), churn, nil
}

// applyChurnUS measures the mean wall cost of one single-mutation churn
// batch (insert+remove pairs) against st.
func applyChurnUS(st *index.Store, rounds int) (float64, error) {
	for i := 0; i < rounds/4; i++ { // warm the branch chain (and the log's page cache)
		id, err := st.Insert(geom.Pt(float64((i*29)%9973)+1, float64((i*31)%9941)+1))
		if err != nil {
			return 0, err
		}
		if err := st.Remove(id); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		id, err := st.Insert(geom.Pt(float64((i*131)%9973)+1, float64((i*373)%9941)+1))
		if err != nil {
			return 0, err
		}
		if err := st.Remove(id); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(2*rounds), nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// DurabilityBench measures what durability costs the serving stack:
// EngineBench's closed-loop workload with and without a WAL under the
// recommended fsync=interval policy, the isolated append cost on the
// batch-apply path, and a crash-recovery probe (fsync=always, manager
// abandoned without a final checkpoint, directory reopened cold). Scale
// divides sessions, steps and the replayed batch count.
func DurabilityBench(cfg Config) (DurabilityBenchResult, error) {
	const objects = 20000
	sessions := 2000
	steps := 120
	replayBatches := 4000
	if cfg.Scale > 1 {
		sessions /= cfg.Scale
		steps /= cfg.Scale
		replayBatches /= cfg.Scale
	}
	pts := workload.Uniform(objects, Bounds, cfg.seed(42))

	// Serving rates with and without the log, interleaved over two
	// repetitions keeping the best of each: the WAL never touches the
	// session-update read path, so the true overhead is small and a
	// single cold run (page faults, CPU frequency ramp) would drown it.
	var baseRate, rate float64
	var churn int
	var ws wal.Stats
	var walApplyUS float64
	for rep := 0; rep < 3; rep++ {
		e, err := engine.New(engine.Config{Shards: 8, Bounds: Bounds, Objects: pts})
		if err != nil {
			return DurabilityBenchResult{}, err
		}
		r, _, err := servingRate(e, sessions, steps, cfg.seed(0))
		e.Close()
		if err != nil {
			return DurabilityBenchResult{}, err
		}
		baseRate = maxf(baseRate, r)

		dir, err := os.MkdirTemp("", "insq-walbench-*")
		if err != nil {
			return DurabilityBenchResult{}, err
		}
		mgr, err := wal.Open(index.Config{Bounds: Bounds, Objects: pts},
			wal.Options{Dir: dir, Sync: wal.SyncInterval})
		if err != nil {
			os.RemoveAll(dir)
			return DurabilityBenchResult{}, err
		}
		e, err = engine.New(engine.Config{Shards: 8, Bounds: Bounds, WAL: mgr})
		if err != nil {
			os.RemoveAll(dir)
			return DurabilityBenchResult{}, err
		}
		r, c, err := servingRate(e, sessions, steps, cfg.seed(0))
		if err != nil {
			e.Close()
			os.RemoveAll(dir)
			return DurabilityBenchResult{}, err
		}
		rate = maxf(rate, r)
		churn = c
		walApplyUS, err = applyChurnUS(mgr.Store(), 256)
		if err != nil {
			e.Close()
			os.RemoveAll(dir)
			return DurabilityBenchResult{}, err
		}
		ws = mgr.Stats()
		if err := mgr.Close(); err != nil {
			os.RemoveAll(dir)
			return DurabilityBenchResult{}, err
		}
		e.Close()
		os.RemoveAll(dir)
	}

	// The isolated apply cost without a log, same store shape.
	st, err := index.NewStore(index.Config{Bounds: Bounds, Objects: pts})
	if err != nil {
		return DurabilityBenchResult{}, err
	}
	baseApplyUS, err := applyChurnUS(st, 256)
	st.Close()
	if err != nil {
		return DurabilityBenchResult{}, err
	}

	res := DurabilityBenchResult{
		Sessions:        sessions,
		Objects:         objects,
		Steps:           steps,
		DataUpdates:     churn,
		Policy:          string(wal.SyncInterval),
		BaseUpdatesSec:  baseRate,
		UpdatesSec:      rate,
		ApplyUSBase:     baseApplyUS,
		ApplyUSWAL:      walApplyUS,
		AppendedBatches: ws.AppendedBatches,
		AppendedBytes:   ws.AppendedBytes,
		Fsyncs:          ws.Fsyncs,
	}
	if baseRate > 0 {
		res.OverheadPct = 100 * (1 - rate/baseRate)
	}
	if ws.Fsyncs > 0 {
		res.FsyncMeanUS = float64(ws.FsyncTotal.Nanoseconds()) / 1e3 / float64(ws.Fsyncs)
	}

	// Crash-recovery probe: fsync=always means every batch is on disk the
	// moment Apply returns, so abandoning the manager without Close is a
	// faithful SIGKILL — no final checkpoint, the WAL tail alone carries
	// the tail of the history.
	rdir, err := os.MkdirTemp("", "insq-walrecover-*")
	if err != nil {
		return DurabilityBenchResult{}, err
	}
	defer os.RemoveAll(rdir)
	probeObjects := workload.Uniform(objects/2, Bounds, cfg.seed(45))
	rmgr, err := wal.Open(index.Config{Bounds: Bounds, Objects: probeObjects},
		wal.Options{Dir: rdir, Sync: wal.SyncAlways, CheckpointEvery: 1 << 60})
	if err != nil {
		return DurabilityBenchResult{}, err
	}
	for i := 0; i < replayBatches/2; i++ {
		id, err := rmgr.Store().Insert(geom.Pt(float64((i*131)%9973)+1, float64((i*373)%9941)+1))
		if err != nil {
			return DurabilityBenchResult{}, err
		}
		if err := rmgr.Store().Remove(id); err != nil {
			return DurabilityBenchResult{}, err
		}
	}
	rmgr.Store().Close() // crash: no manager Close, no final checkpoint

	start := time.Now()
	rmgr2, err := wal.Open(index.Config{Bounds: Bounds, Network: nil},
		wal.Options{Dir: rdir, Sync: wal.SyncAlways})
	if err != nil {
		return DurabilityBenchResult{}, err
	}
	recovery := time.Since(start)
	rws := rmgr2.Stats()
	res.RecoveryObjects = objects / 2
	res.ReplayedBatches = rws.ReplayedBatches
	res.ReplayedMutations = rws.ReplayedMutations
	res.CheckpointBytes = rws.CheckpointBytes
	res.RecoveryMS = float64(recovery.Nanoseconds()) / 1e6
	if err := rmgr2.Close(); err != nil {
		return DurabilityBenchResult{}, err
	}
	rmgr2.Store().Close()
	return res, nil
}
