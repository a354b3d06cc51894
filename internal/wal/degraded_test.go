package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
)

// TestManagerDegradesAndHeals drives the full degradation ladder at the
// WAL layer: a persistent injected fsync failure flips the manager into
// degraded mode (appends fail fast with ErrDegraded, reads keep
// serving), disarming the fault lets the background probe heal it
// (checkpoint + fresh log), writes resume, and a subsequent crash and
// cold reopen recovers a store equal to a mutation-for-mutation
// reference — proving the heal path lost nothing.
func TestManagerDegradesAndHeals(t *testing.T) {
	defer fault.DisarmAll()
	dir := t.TempDir()
	cfg := testConfig(t)
	ref, _ := reference(t, cfg)
	defer ref.Close()

	mgr, err := Open(cfg, Options{
		Dir:          dir,
		Sync:         SyncAlways,
		DegradeAfter: 2,
		ProbeEvery:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Store()

	// applyBoth-style helper for single plane inserts: a successful apply
	// is mirrored into the reference (failed applies discard the branch,
	// so ids and epochs stay aligned).
	insertBoth := func(p geom.Point) error {
		if _, err := st.Insert(p); err != nil {
			return err
		}
		if _, err := ref.Insert(p); err != nil {
			t.Fatalf("reference insert diverged: %v", err)
		}
		return nil
	}

	for i := 0; i < 5; i++ {
		if err := insertBoth(geom.Pt(float64(10+i), 10)); err != nil {
			t.Fatalf("healthy insert %d: %v", i, err)
		}
	}

	// Arm a persistent fsync failure: the very first append goes sticky
	// (the group-commit syncer records the error), so the manager must
	// flip degraded within DegradeAfter attempts.
	fault.WALFsyncErr.Arm(fault.Spec{})
	var lastErr error
	for i := 0; i < 4 && !mgr.Degraded(); i++ {
		if _, err := st.Insert(geom.Pt(float64(100+i), 100)); err != nil {
			lastErr = err
		} else {
			t.Fatal("insert succeeded with wal.fsync.err armed")
		}
	}
	if !mgr.Degraded() {
		t.Fatalf("manager not degraded after repeated fsync failures (last: %v)", lastErr)
	}
	if st.Epoch() != ref.Epoch() {
		t.Fatalf("failed appends advanced the epoch: %d vs reference %d", st.Epoch(), ref.Epoch())
	}

	// Degraded fail-fast: the append is rejected before touching the log.
	_, err = st.Insert(geom.Pt(200, 200))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert error = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, index.ErrDurability) {
		t.Fatalf("degraded insert error = %v, want index.ErrDurability wrap", err)
	}

	// Reads keep serving while degraded.
	if got, want := st.Current().Plane().Len(), ref.Current().Plane().Len(); got != want {
		t.Fatalf("degraded store serves %d objects, reference %d", got, want)
	}

	// The probe must NOT heal while the disk is still broken: the heal's
	// own fsync re-fires the failpoint.
	time.Sleep(25 * time.Millisecond)
	if !mgr.Degraded() {
		t.Fatal("manager healed while wal.fsync.err was still armed")
	}

	// Disarm ("replace the disk") and wait for the probe to heal.
	fault.WALFsyncErr.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("manager never healed after the fault was disarmed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if err := insertBoth(geom.Pt(float64(300+i), 300)); err != nil {
			t.Fatalf("post-heal insert %d: %v", i, err)
		}
	}

	ws := mgr.Stats()
	if ws.DegradeEvents == 0 || ws.HealEvents == 0 {
		t.Fatalf("stats: degrade=%d heal=%d, want both > 0", ws.DegradeEvents, ws.HealEvents)
	}
	if ws.Degraded {
		t.Fatal("stats still report degraded after heal")
	}

	// Crash (no Close, fsync=always) and reopen: recovery must land on
	// exactly the reference — the degrade/heal cycle lost no acknowledged
	// write and replays no rejected one.
	assertStoresEqual(t, "before crash", st, ref)
	st.Close()

	mgr2, err := Open(cfg, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr2.Close(); mgr2.Store().Close() }()
	assertStoresEqual(t, "after crash", mgr2.Store(), ref)
}

// TestDegradedManagerClosesCleanly makes sure Close works from inside
// degraded mode (sticky log error, probe goroutine live).
func TestDegradedManagerClosesCleanly(t *testing.T) {
	defer fault.DisarmAll()
	dir := t.TempDir()
	cfg := testConfig(t)

	mgr, err := Open(cfg, Options{Dir: dir, Sync: SyncAlways, DegradeAfter: 1, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fault.WALFsyncErr.Arm(fault.Spec{})
	if _, err := mgr.Store().Insert(geom.Pt(1, 1)); err == nil {
		t.Fatal("insert succeeded with wal.fsync.err armed")
	}
	if !mgr.Degraded() {
		t.Fatal("manager not degraded with DegradeAfter=1")
	}
	fault.WALFsyncErr.Disarm()
	// Close with the log still sticky: the final checkpoint may fail but
	// Close must return (no deadlock on the dead syncer).
	mgr.Close()
	mgr.Store().Close()
}

// TestCloseDuringInFlightIntervalFsync races Close against a background
// interval fsync stretched by the wal.fsync.delay failpoint: Close must
// join the sync loop before its own final fsync (no double-fsync of a
// closed file, no race on the segment handle), and a reopen must see a
// consistent log. Run with -race to make the ordering claim meaningful.
func TestCloseDuringInFlightIntervalFsync(t *testing.T) {
	defer fault.DisarmAll()
	cfg := testConfig(t)
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		mgr, err := Open(cfg, Options{Dir: dir, Sync: SyncInterval, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Store().Insert(geom.Pt(float64(i)+1, 5)); err != nil {
			t.Fatal(err)
		}
		// Stretch the next background fsync so Close lands mid-flight.
		fault.WALFsyncDelay.Arm(fault.Spec{Delay: 10 * time.Millisecond})
		if _, err := mgr.Store().Insert(geom.Pt(float64(i)+1, 6)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // ticker fires, syncer sleeps inside the failpoint
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mgr.Close(); err != nil {
				t.Errorf("close during in-flight fsync: %v", err)
			}
		}()
		wg.Wait()
		mgr.Store().Close()
		fault.WALFsyncDelay.Disarm()

		mgr2, err := Open(cfg, Options{Dir: dir, Sync: SyncInterval})
		if err != nil {
			t.Fatalf("reopen after racing close: %v", err)
		}
		if got := mgr2.Stats().RecoveredEpoch; got == 0 {
			t.Fatal("reopen recovered nothing")
		}
		mgr2.Close()
		mgr2.Store().Close()
	}
}
