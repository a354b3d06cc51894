package engine

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestEngineKillHealRoundTrip is the degradation ladder end to end at the
// engine layer: with a persistent fsync failure armed the engine enters
// degraded mode (object writes rejected with ErrDegraded, location updates
// keep serving, the WAL un-advanced), and disarming the fault lets the
// background probe restore durability and writes. A bounded disk-full burst
// then degrades the engine and clears by itself once its fires are spent,
// with no Disarm; a stretched epoch publication acks every write while the
// location updates between them keep answering. A crash + recovery after
// all of it replays to a store identical to a kNN probe taken before the
// crash. Run with -race.
func TestEngineKillHealRoundTrip(t *testing.T) {
	defer fault.DisarmAll()
	dir := t.TempDir()
	objects := workload.Uniform(500, testBounds, 7)
	open := func() (*wal.Manager, *Engine) {
		t.Helper()
		mgr, err := wal.Open(index.Config{Bounds: testBounds, Objects: objects}, wal.Options{
			Dir:          dir,
			Sync:         wal.SyncAlways,
			DegradeAfter: 2,
			ProbeEvery:   5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Shards: 2, Bounds: testBounds, WAL: mgr})
		if err != nil {
			t.Fatal(err)
		}
		return mgr, e
	}
	mgr, e := open()

	sid, err := e.CreateSession(5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	update := func(p geom.Point) ([]int, error) {
		results, err := updateBatch(e, []LocationUpdate{{Session: sid, Pos: p}})
		if err != nil {
			return nil, err
		}
		return results[0].KNN, results[0].Err
	}

	if _, err := insertObject(e, geom.Pt(500, 500)); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}
	epochBefore := mgr.Store().Epoch()

	// Kill the disk: writes must degrade, reads must not.
	fault.WALFsyncErr.Arm(fault.Spec{})
	for i := 0; i < 3 && !e.Degraded(); i++ {
		if _, err := insertObject(e, geom.Pt(600, 600)); err == nil {
			t.Fatal("insert succeeded with wal.fsync.err armed")
		}
	}
	if !e.Degraded() {
		t.Fatal("engine not degraded after repeated durability failures")
	}
	if _, err := insertObject(e, geom.Pt(601, 601)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert error = %v, want ErrDegraded", err)
	}
	if err := removeObject(e, 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded remove error = %v, want ErrDegraded", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := update(geom.Pt(float64(100+i*50), 300)); err != nil {
			t.Fatalf("location update %d failed while degraded: %v", i, err)
		}
	}
	if got := mgr.Store().Epoch(); got != epochBefore {
		t.Fatalf("degraded writes advanced the WAL store: epoch %d, want %d", got, epochBefore)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatal("Stats.Degraded = false while degraded")
	}

	// Heal the disk: the probe must bring writes back without a restart.
	fault.WALFsyncErr.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := insertObject(e, geom.Pt(700, 700)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never recovered after the fault was disarmed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if e.Degraded() {
		t.Fatal("engine still degraded after a successful write")
	}

	// A bounded disk-full burst: DegradeAfter 2 flips the engine degraded
	// mid-burst, and once the three fires are spent the heal probe restores
	// writes with no Disarm.
	fullBefore := fault.WALDiskFull.Fires()
	fault.WALDiskFull.Arm(fault.Spec{Count: 3})
	sawDegraded := false
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := insertObject(e, geom.Pt(710, 710))
		sawDegraded = sawDegraded || e.Degraded()
		if err == nil && !e.Degraded() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the disk-full burst never cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := fault.WALDiskFull.Fires() - fullBefore; n != 3 {
		t.Fatalf("wal.disk.full fired %d times, want its count of 3", n)
	}
	if !sawDegraded {
		t.Fatal("three disk-full failures with DegradeAfter 2 never degraded the engine")
	}
	if fault.WALDiskFull.Armed() {
		t.Fatal("wal.disk.full still armed after its count was spent")
	}

	// A stretched epoch publication: every write is durable before the
	// delay and acked after it, and the location updates between writes
	// answer from the previous snapshot without error.
	delayBefore := fault.StorePublishDelay.Fires()
	fault.StorePublishDelay.Arm(fault.Spec{Delay: 5 * time.Millisecond, Count: 4})
	for i := 0; i < 4; i++ {
		if _, err := insertObject(e, geom.Pt(float64(720+i), 720)); err != nil {
			t.Fatalf("write %d under publish delay: %v", i, err)
		}
		if _, err := update(geom.Pt(float64(300+i*50), 400)); err != nil {
			t.Fatalf("location update %d under publish delay: %v", i, err)
		}
	}
	if n := fault.StorePublishDelay.Fires() - delayBefore; n != 4 {
		t.Fatalf("store.publish.delay fired %d times, want 4", n)
	}

	// Crash by abandonment (fsync=always: all acknowledged writes are on
	// disk) and recover: the same probe position must see the same kNN.
	probe := geom.Pt(512, 512)
	preKNN, perr := update(probe)
	if perr != nil {
		t.Fatal(perr)
	}
	sort.Ints(preKNN)
	mgr.Store().Close() // no mgr.Close(): SIGKILL semantics
	e.Close()

	mgr2, e2 := open()
	defer func() { mgr2.Close(); e2.Close(); mgr2.Store().Close() }()
	sid2, err := e2.CreateSession(5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	results, err := updateBatch(e2, []LocationUpdate{{Session: sid2, Pos: probe}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	postKNN := append([]int(nil), results[0].KNN...)
	sort.Ints(postKNN)
	if len(preKNN) != len(postKNN) {
		t.Fatalf("post-crash kNN %v, want %v", postKNN, preKNN)
	}
	for i := range preKNN {
		if preKNN[i] != postKNN[i] {
			t.Fatalf("post-crash kNN %v, want %v", postKNN, preKNN)
		}
	}
}

// TestEngineShedsAtHighWatermark drives a single slow shard (injected
// per-batch apply delay) with a tiny mailbox from many goroutines:
// admission control must reject batches with ErrOverloaded instead of
// queueing without bound, and the shed counter must account every
// rejected entry.
func TestEngineShedsAtHighWatermark(t *testing.T) {
	defer fault.DisarmAll()
	e, err := New(Config{
		Shards:       1,
		Bounds:       testBounds,
		Objects:      workload.Uniform(100, testBounds, 3),
		MailboxDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sids := make([]SessionID, 8)
	for i := range sids {
		if sids[i], err = e.CreateSession(3, 1.6); err != nil {
			t.Fatal(err)
		}
	}
	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 2 * time.Millisecond})

	var overloaded, ok int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := updateBatch(e, []LocationUpdate{{
					Session: sids[w],
					Pos:     geom.Pt(float64((w*97+i*13)%999)+1, float64((w*61+i*29)%999)+1),
				}})
				mu.Lock()
				switch {
				case errors.Is(err, ErrOverloaded):
					overloaded++
				case err == nil:
					ok++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	fault.ShardApplyDelay.Disarm()

	if overloaded == 0 {
		t.Fatal("no batch was shed: mailbox high watermark never triggered")
	}
	if ok == 0 {
		t.Fatal("every batch was shed: admission control over-rejects")
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != uint64(overloaded) {
		t.Fatalf("Stats.Shed = %d, want %d (one entry per shed single-entry batch)", st.Shed, overloaded)
	}
}

// TestEngineDropsExpiredBatches occupies the one shard worker with a
// slow batch, then enqueues a batch whose context deadline expires while
// it waits in the mailbox: the shard must drop it (per-entry ErrExpired,
// no apply) and count it.
func TestEngineDropsExpiredBatches(t *testing.T) {
	defer fault.DisarmAll()
	e, err := New(Config{
		Shards:  1,
		Bounds:  testBounds,
		Objects: workload.Uniform(100, testBounds, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	occupier, err := e.CreateSession(3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.CreateSession(3, 1.6)
	if err != nil {
		t.Fatal(err)
	}

	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 30 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		updateBatch(e, []LocationUpdate{{Session: occupier, Pos: geom.Pt(100, 100)}})
	}()
	time.Sleep(5 * time.Millisecond) // worker dequeues the occupier and sleeps in the failpoint

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	results, err := e.UpdateBatchCtx(ctx, []LocationUpdate{{Session: victim, Pos: geom.Pt(200, 200)}})
	if err != nil {
		t.Fatalf("UpdateBatchCtx returned batch error %v, want per-entry results", err)
	}
	if !errors.Is(results[0].Err, ErrExpired) {
		t.Fatalf("expired entry error = %v, want ErrExpired", results[0].Err)
	}
	<-done
	fault.ShardApplyDelay.Disarm()

	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired == 0 {
		t.Fatal("Stats.Expired = 0 after a deadline drop")
	}
	// The victim's position must not have been applied: its next update
	// from the same spot reports the move as a fresh one, which we can
	// only observe indirectly — the expired entry carried no kNN.
	if len(results[0].KNN) != 0 {
		t.Fatalf("expired entry carried a kNN result: %v", results[0].KNN)
	}
}
