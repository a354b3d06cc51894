package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ChaosBenchResult is the fault-injection record written to
// BENCH_chaos.json by `bench -exp CHAOS`. It is not a throughput number:
// it proves the degradation ladder end to end — persistent fsync failure
// flips the engine into read-only degraded mode (writes rejected, reads
// error-free), healing the disk brings writes back via the WAL's probe,
// overload sheds at the shard queue high watermark, expired deadlines
// drop at the shard, and a crash after all of it still recovers to an
// equivalent store. benchguard -kind chaos gates the invariants.
type ChaosBenchResult struct {
	Rounds   int `json:"rounds"`
	Sessions int `json:"sessions"`
	Objects  int `json:"objects"`

	// Degrade/heal round trips driven by a persistent injected fsync
	// failure: how long until the manager flipped to degraded (worst
	// round), and how long from disarming the fault until a write
	// succeeded again (worst round, includes the probe interval).
	TimeToDegradeMaxMS float64 `json:"time_to_degrade_max_ms"`
	TimeToRecoverMaxMS float64 `json:"time_to_recover_max_ms"`

	// Write-path accounting across every degrade/heal round plus the
	// transient disk-full round: attempts, rejections (degraded or
	// injected), successes after heal.
	WritesAttempted int `json:"writes_attempted"`
	WritesRejected  int `json:"writes_rejected"`
	WritesOK        int `json:"writes_ok"`

	// Location updates served while the WAL was degraded; the read path
	// must stay error-free (the core degraded-mode invariant).
	ReadsDuringDegraded      int `json:"reads_during_degraded"`
	ReadErrorsDuringDegraded int `json:"read_errors_during_degraded"`

	// Overload/deadline phases: entries shed by admission control under a
	// slow shard (ShedRate = shed fraction of attempted entries) and
	// entries dropped because their deadline expired before apply.
	ShedRate     float64 `json:"shed_rate"`
	QueueShed    uint64  `json:"queue_shed"`
	ExpiredDrops uint64  `json:"expired_drops"`

	// Failpoint fire counts, proving each fault actually triggered.
	FsyncErrFires     uint64 `json:"fsync_err_fires"`
	DiskFullFires     uint64 `json:"disk_full_fires"`
	PublishDelayFires uint64 `json:"publish_delay_fires"`

	// Recovered is the final verdict: after every fault round a crash
	// (manager abandoned without Close) and a cold reopen produced a
	// store whose kNN probe matches the pre-crash result.
	Recovered bool `json:"recovered"`
}

// String renders the result as a short table for the harness output.
func (r ChaosBenchResult) String() string {
	return fmt.Sprintf(
		"CHAOS  rounds=%d sessions=%d objects=%d\n"+
			"       degrade<=%.1fms recover<=%.1fms writes: %d attempted / %d rejected / %d ok\n"+
			"       degraded reads: %d (%d errors)  shed=%d (rate %.2f)  expired=%d\n"+
			"       fires: fsync_err=%d disk_full=%d publish_delay=%d  recovered=%v",
		r.Rounds, r.Sessions, r.Objects,
		r.TimeToDegradeMaxMS, r.TimeToRecoverMaxMS, r.WritesAttempted, r.WritesRejected, r.WritesOK,
		r.ReadsDuringDegraded, r.ReadErrorsDuringDegraded, r.QueueShed, r.ShedRate, r.ExpiredDrops,
		r.FsyncErrFires, r.DiskFullFires, r.PublishDelayFires, r.Recovered)
}

// knnProbe runs one location update on a fresh session and returns the
// sorted kNN ids — the equivalence fingerprint for crash recovery.
func knnProbe(e *engine.Engine, at geom.Point) ([]int, error) {
	sid, err := e.CreateSession(5, 1.6)
	if err != nil {
		return nil, err
	}
	defer e.CloseSession(sid)
	results, err := e.UpdateBatchCtx(context.Background(), []engine.LocationUpdate{{Session: sid, Pos: at}})
	if err != nil {
		return nil, err
	}
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	knn := append([]int(nil), results[0].KNN...)
	sort.Ints(knn)
	return knn, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ChaosBench drives the full engine + WAL stack through an injected
// fault schedule. Phases:
//
//  1. Degrade/heal rounds: arm wal.fsync.err persistently, hammer object
//     writes until the manager flips degraded (time-to-degrade), serve
//     location updates while degraded (must be error-free), disarm, and
//     poll writes until the heal probe restores them (time-to-recover).
//  2. A transient wal.disk.full burst (bounded count) that must clear
//     without degrading permanently.
//  3. A store.publish.delay round: durable writes with a stretched
//     epoch publication — reads keep serving the previous snapshot.
//  4. Overload: a deliberately slow shard (shard.apply.delay) with a
//     tiny mailbox and concurrent update batches; admission control must
//     shed rather than queue without bound.
//  5. Deadline: update batches under a ~1ms context deadline against the
//     slow shard; expired batches are dropped, counted, not applied.
//  6. Crash by abandonment, cold reopen, kNN-probe equivalence.
//
// Scale divides the round count.
func ChaosBench(cfg Config) (ChaosBenchResult, error) {
	const (
		objects  = 4000
		sessions = 64
	)
	rounds := 4
	if cfg.Scale > 1 {
		rounds = max(2, rounds/cfg.Scale)
	}
	fault.DisarmAll()
	defer fault.DisarmAll()

	dir, err := os.MkdirTemp("", "insq-chaos-*")
	if err != nil {
		return ChaosBenchResult{}, err
	}
	defer os.RemoveAll(dir)

	pts := workload.Uniform(objects, Bounds, cfg.seed(42))
	mgr, err := wal.Open(index.Config{Bounds: Bounds, Objects: pts}, wal.Options{
		Dir:             dir,
		Sync:            wal.SyncAlways,
		CheckpointEvery: 1 << 60, // recovery must ride the WAL tail, not a checkpoint
		DegradeAfter:    2,
		ProbeEvery:      20 * time.Millisecond,
	})
	if err != nil {
		return ChaosBenchResult{}, err
	}
	e, err := engine.New(engine.Config{Shards: 4, Bounds: Bounds, WAL: mgr})
	if err != nil {
		return ChaosBenchResult{}, err
	}

	sids := make([]engine.SessionID, sessions)
	for i := range sids {
		if sids[i], err = e.CreateSession(5, 1.6); err != nil {
			return ChaosBenchResult{}, err
		}
	}
	readBatch := func(step int) error {
		batch := make([]engine.LocationUpdate, len(sids))
		for i, sid := range sids {
			batch[i] = engine.LocationUpdate{
				Session: sid,
				Pos:     geom.Pt(float64((step*131+i*37)%9973)+1, float64((step*373+i*59)%9941)+1),
			}
		}
		results, err := e.UpdateBatchCtx(context.Background(), batch)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	writeAt := func(i int) geom.Point {
		return geom.Pt(float64((i*131)%9973)+1, float64((i*373)%9941)+1)
	}

	res := ChaosBenchResult{Rounds: rounds, Sessions: sessions, Objects: objects}
	var inserted []int
	wseq := 0
	tryWrite := func() error {
		res.WritesAttempted++
		id, err := mutate(e, index.Mutation{Insert: true, P: writeAt(wseq)})
		wseq++
		if err != nil {
			res.WritesRejected++
			return err
		}
		res.WritesOK++
		inserted = append(inserted, id)
		return nil
	}

	// Phase 1: degrade/heal rounds under persistent fsync failure.
	for round := 0; round < rounds; round++ {
		fault.WALFsyncErr.Arm(fault.Spec{})
		degradeStart := time.Now()
		for !e.Degraded() {
			tryWrite()
			if time.Since(degradeStart) > 10*time.Second {
				return res, fmt.Errorf("chaos: round %d: engine never degraded", round)
			}
		}
		res.TimeToDegradeMaxMS = maxf(res.TimeToDegradeMaxMS,
			float64(time.Since(degradeStart).Nanoseconds())/1e6)

		// Degraded mode: writes fail fast, reads keep serving.
		if err := tryWrite(); err == nil {
			return res, fmt.Errorf("chaos: round %d: write succeeded while degraded", round)
		}
		for step := 0; step < 8; step++ {
			res.ReadsDuringDegraded += sessions
			if err := readBatch(round*100 + step); err != nil {
				res.ReadErrorsDuringDegraded++
			}
		}

		// Heal: disarm the fault and poll until the probe restores writes.
		fault.WALFsyncErr.Disarm()
		healStart := time.Now()
		for {
			if err := tryWrite(); err == nil {
				break
			}
			if time.Since(healStart) > 10*time.Second {
				return res, fmt.Errorf("chaos: round %d: engine never healed", round)
			}
			time.Sleep(2 * time.Millisecond)
		}
		res.TimeToRecoverMaxMS = maxf(res.TimeToRecoverMaxMS,
			float64(time.Since(healStart).Nanoseconds())/1e6)
	}

	// Phase 2: a bounded disk-full burst. DegradeAfter=2 means the engine
	// may flip degraded mid-burst; once the count is exhausted the probe
	// heals it without any disarm — the fault self-clears.
	fault.WALDiskFull.Arm(fault.Spec{Count: 3})
	healStart := time.Now()
	for {
		if err := tryWrite(); err == nil && !e.Degraded() {
			break
		}
		if time.Since(healStart) > 10*time.Second {
			return res, fmt.Errorf("chaos: disk-full burst never cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 3: stretched epoch publication. The write is durable before
	// the delay, and concurrent reads serve the previous snapshot.
	fault.StorePublishDelay.Arm(fault.Spec{Delay: 5 * time.Millisecond, Count: 4})
	for i := 0; i < 4; i++ {
		if err := tryWrite(); err != nil {
			return res, fmt.Errorf("chaos: write under publish delay: %w", err)
		}
		if err := readBatch(1000 + i); err != nil {
			return res, fmt.Errorf("chaos: read under publish delay: %w", err)
		}
	}
	fault.StorePublishDelay.Disarm()

	res.FsyncErrFires = fault.WALFsyncErr.Fires()
	res.DiskFullFires = fault.WALDiskFull.Fires()
	res.PublishDelayFires = fault.StorePublishDelay.Fires()

	// Record the pre-crash fingerprint, then crash: abandon the manager
	// without Close. fsync=always means every acknowledged write is on
	// disk, so the reopened store must match the probe exactly.
	probeAt := geom.Pt(5000, 5000)
	preCrash, err := knnProbe(e, probeAt)
	if err != nil {
		return res, err
	}
	mgr.Store().Close() // crash: no manager Close, no final checkpoint
	e.Close()

	mgr2, err := wal.Open(index.Config{Bounds: Bounds}, wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return res, fmt.Errorf("chaos: reopen after crash: %w", err)
	}
	e2, err := engine.New(engine.Config{Shards: 4, Bounds: Bounds, WAL: mgr2})
	if err != nil {
		return res, err
	}
	postCrash, err := knnProbe(e2, probeAt)
	if err != nil {
		return res, err
	}
	res.Recovered = equalInts(preCrash, postCrash)
	if err := mgr2.Close(); err != nil {
		return res, err
	}
	e2.Close()
	mgr2.Store().Close()

	// Phases 4-5 run on a dedicated WAL-free engine: one shard with a
	// tiny mailbox and an injected per-batch apply delay, so admission
	// control and deadline drops trigger deterministically.
	oe, err := engine.New(engine.Config{
		Shards:       1,
		Bounds:       Bounds,
		Objects:      workload.Uniform(512, Bounds, cfg.seed(7)),
		MailboxDepth: 4,
	})
	if err != nil {
		return res, err
	}
	defer oe.Close()
	osids := make([]engine.SessionID, 16)
	for i := range osids {
		if osids[i], err = oe.CreateSession(5, 1.6); err != nil {
			return res, err
		}
	}
	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 2 * time.Millisecond})

	var attempted atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				batch := []engine.LocationUpdate{{
					Session: osids[w],
					Pos:     geom.Pt(float64((w*97+i*13)%9973)+1, float64((w*61+i*29)%9941)+1),
				}}
				attempted.Add(1)
				oe.UpdateBatchCtx(context.Background(), batch) // ErrOverloaded expected under pressure
			}
		}(w)
	}
	wg.Wait()

	// Deadline phase: pin the worker with a slow occupier batch, then
	// enqueue a batch whose deadline expires while it waits in the
	// mailbox — the shard must drop it without applying.
	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 20 * time.Millisecond})
	for i := 0; i < 4; i++ {
		occupied := make(chan struct{})
		go func() {
			defer close(occupied)
			oe.UpdateBatchCtx(context.Background(), []engine.LocationUpdate{{Session: osids[1], Pos: geom.Pt(200, 200)}})
		}()
		time.Sleep(2 * time.Millisecond) // let the worker dequeue the occupier
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		oe.UpdateBatchCtx(ctx, []engine.LocationUpdate{{Session: osids[0], Pos: geom.Pt(100, 100)}})
		cancel()
		<-occupied
	}
	fault.ShardApplyDelay.Disarm()

	ost, err := oe.Stats()
	if err != nil {
		return res, err
	}
	res.QueueShed = ost.Shed
	res.ExpiredDrops = ost.Expired
	if n := attempted.Load(); n > 0 {
		res.ShedRate = float64(ost.Shed) / float64(n)
	}
	if res.QueueShed == 0 {
		return res, fmt.Errorf("chaos: overload phase shed nothing (mailbox never filled)")
	}
	if res.ExpiredDrops == 0 {
		return res, fmt.Errorf("chaos: deadline phase expired nothing")
	}
	return res, nil
}
