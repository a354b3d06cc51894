package wal

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

// testConfig seeds a small two-sided store: 40 plane objects plus a 5x5
// street grid with 6 sites.
func testConfig(t *testing.T) index.Config {
	t.Helper()
	g, err := roadnet.GridNetwork(5, 5, testBounds, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return index.Config{
		Bounds:       testBounds,
		Objects:      workload.Uniform(40, testBounds, 1),
		Network:      g,
		NetworkSites: []int{0, 6, 12, 18, 24},
	}
}

// driver generates deterministic mixed-side mutation batches that are
// valid against the tracked live state: removals only target pre-batch
// live ids/sites, and the network side never drains below two sites.
type driver struct {
	rng   *rand.Rand
	live  []int
	sites map[int]bool
	nv    int
}

func newDriver(seed int64, cfg index.Config, liveIDs []int) *driver {
	d := &driver{rng: rand.New(rand.NewSource(seed)), live: append([]int(nil), liveIDs...), sites: map[int]bool{}, nv: cfg.Network.NumVertices()}
	for _, v := range cfg.NetworkSites {
		d.sites[v] = true
	}
	return d
}

func (d *driver) next() []index.Mutation {
	n := 1 + d.rng.Intn(3)
	muts := make([]index.Mutation, 0, n)
	touched := map[int]bool{} // vertices already used this batch
	for len(muts) < n {
		switch d.rng.Intn(4) {
		case 0, 1: // plane insert
			muts = append(muts, index.Mutation{Insert: true, P: geom.Pt(d.rng.Float64()*1000, d.rng.Float64()*1000)})
		case 2: // plane remove
			if len(d.live) < 6 {
				continue
			}
			i := d.rng.Intn(len(d.live))
			muts = append(muts, index.Mutation{ID: d.live[i]})
			d.live = append(d.live[:i], d.live[i+1:]...)
		case 3: // network site toggle
			v := d.rng.Intn(d.nv)
			if touched[v] {
				continue
			}
			if d.sites[v] {
				if len(d.sites) <= 2 {
					continue
				}
				delete(d.sites, v)
				muts = append(muts, index.Mutation{Network: true, ID: v})
			} else {
				d.sites[v] = true
				muts = append(muts, index.Mutation{Network: true, Insert: true, ID: v})
			}
			touched[v] = true
		}
	}
	return muts
}

// note records the ids a reference Apply assigned so the driver can
// target live objects later.
func (d *driver) note(muts []index.Mutation, ids []int) {
	for i, m := range muts {
		if !m.Network && m.Insert {
			d.live = append(d.live, ids[i])
		}
	}
}

// applyBoth drives the same batch through the WAL-managed store and the
// in-process reference and asserts both assign identical ids.
func applyBoth(t *testing.T, d *driver, got, want *index.Store, muts []index.Mutation) {
	t.Helper()
	wids, err := want.Apply(muts)
	if err != nil {
		t.Fatalf("reference Apply: %v", err)
	}
	gids, err := got.Apply(muts)
	if err != nil {
		t.Fatalf("managed Apply: %v", err)
	}
	if len(gids) != len(wids) {
		t.Fatalf("id count: got %d, want %d", len(gids), len(wids))
	}
	for i := range gids {
		if gids[i] != wids[i] {
			t.Fatalf("mutation %d: managed store assigned id %d, reference %d", i, gids[i], wids[i])
		}
	}
	d.note(muts, wids)
}

// assertStoresEqual asserts the two stores are query-equivalent: same
// epoch, same live objects and next id, same kNN answers over a probe
// grid on the plane side and at every vertex on the network side.
func assertStoresEqual(t *testing.T, tag string, got, want *index.Store) {
	t.Helper()
	if g, w := got.Epoch(), want.Epoch(); g != w {
		t.Fatalf("%s: epoch %d, want %d", tag, g, w)
	}
	gs, ws := got.Current(), want.Current()
	gobjs, gnext := gs.PlaneObjects()
	wobjs, wnext := ws.PlaneObjects()
	if gnext != wnext {
		t.Fatalf("%s: next id %d, want %d", tag, gnext, wnext)
	}
	if len(gobjs) != len(wobjs) {
		t.Fatalf("%s: %d live objects, want %d", tag, len(gobjs), len(wobjs))
	}
	for i := range gobjs {
		if gobjs[i] != wobjs[i] {
			t.Fatalf("%s: object %d: %+v, want %+v", tag, i, gobjs[i], wobjs[i])
		}
	}
	if wp := ws.Plane(); wp != nil {
		gp := gs.Plane()
		if gp == nil {
			t.Fatalf("%s: recovered store lost its plane side", tag)
		}
		for x := 0.0; x <= 1000; x += 250 {
			for y := 0.0; y <= 1000; y += 250 {
				q := geom.Pt(x+1, y+1)
				gk, wk := gp.KNN(q, 4), wp.KNN(q, 4)
				if len(gk) != len(wk) {
					t.Fatalf("%s: KNN(%v) size %d, want %d", tag, q, len(gk), len(wk))
				}
				for i := range gk {
					if gk[i] != wk[i] {
						t.Fatalf("%s: KNN(%v)[%d] = %d, want %d", tag, q, i, gk[i], wk[i])
					}
				}
			}
		}
	}
	gsites, wsites := gs.NetworkSites(), ws.NetworkSites()
	if len(gsites) != len(wsites) {
		t.Fatalf("%s: %d network sites, want %d", tag, len(gsites), len(wsites))
	}
	for i := range gsites {
		if gsites[i] != wsites[i] {
			t.Fatalf("%s: site[%d] = %d, want %d", tag, i, gsites[i], wsites[i])
		}
	}
	if wn := ws.Network(); wn != nil {
		gn := gs.Network()
		if gn == nil {
			t.Fatalf("%s: recovered store lost its network side", tag)
		}
		for v := 0; v < wn.Graph().NumVertices(); v++ {
			pos := roadnet.VertexPosition(v)
			gk, gd := gn.KNNWithDistances(pos, 3)
			wk, wd := wn.KNNWithDistances(pos, 3)
			if len(gk) != len(wk) {
				t.Fatalf("%s: network KNN(v%d) size %d, want %d", tag, v, len(gk), len(wk))
			}
			for i := range gk {
				if gk[i] != wk[i] || math.Abs(gd[i]-wd[i]) > 1e-9 {
					t.Fatalf("%s: network KNN(v%d)[%d] = (%d, %g), want (%d, %g)", tag, v, i, gk[i], gd[i], wk[i], wd[i])
				}
			}
		}
	}
}

// reference builds the plain in-process store every recovery test
// compares against, and returns the ids of its seed objects.
func reference(t *testing.T, cfg index.Config) (*index.Store, []int) {
	t.Helper()
	ref, err := index.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	objs, _ := ref.Current().PlaneObjects()
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ref, ids
}

// TestCleanRestartEquivalence drives mixed batches, closes cleanly, and
// reopens the directory WITHOUT the seed objects: the recovered store
// must answer identically to the in-process reference, and keep
// assigning the same ids. This proves the data directory is
// self-contained from the first boot.
func TestCleanRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	ref, ids := reference(t, cfg)

	mgr, err := Open(cfg, Options{Dir: dir, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(11, cfg, ids)
	for i := 0; i < 50; i++ {
		applyBoth(t, d, mgr.Store(), ref, d.next())
	}
	assertStoresEqual(t, "before restart", mgr.Store(), ref)
	st := mgr.Stats()
	if st.AppendedBatches != 50 {
		t.Fatalf("AppendedBatches = %d, want 50", st.AppendedBatches)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	mgr.Store().Close()

	// Reopen with no seed data: recovery must not need it.
	cfg2 := cfg
	cfg2.Objects, cfg2.NetworkSites = nil, nil
	mgr2, err := Open(cfg2, Options{Dir: dir, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr2.Close(); mgr2.Store().Close() }()
	assertStoresEqual(t, "after restart", mgr2.Store(), ref)
	if got, want := mgr2.Stats().RecoveredEpoch, ref.Epoch(); got != want {
		t.Fatalf("RecoveredEpoch = %d, want %d", got, want)
	}
	// Id continuity: the next insert gets the same id on both sides.
	applyBoth(t, d, mgr2.Store(), ref, []index.Mutation{{Insert: true, P: geom.Pt(3, 3)}})
}

// TestCrashRecoveryReplay models SIGKILL under -fsync always: the
// manager is abandoned without Close (so no final checkpoint), with
// tiny segments and a short checkpoint cadence so recovery exercises a
// checkpoint load plus multi-segment WAL replay and pruning.
func TestCrashRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	ref, ids := reference(t, cfg)

	mgr, err := Open(cfg, Options{Dir: dir, Sync: SyncAlways, CheckpointEvery: 16, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(22, cfg, ids)
	for i := 0; i < 60; i++ {
		applyBoth(t, d, mgr.Store(), ref, d.next())
	}
	if mgr.Stats().Fsyncs == 0 {
		t.Fatal("fsync=always appended 60 batches without a single fsync")
	}
	// Crash: no mgr.Close(), no final checkpoint. fsync=always means every
	// acknowledged batch is already on disk.
	mgr.Store().Close()

	mgr2, err := Open(cfg, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr2.Close(); mgr2.Store().Close() }()
	assertStoresEqual(t, "after crash", mgr2.Store(), ref)
	st := mgr2.Stats()
	if st.RecoveredEpoch != ref.Epoch() {
		t.Fatalf("RecoveredEpoch = %d, want %d", st.RecoveredEpoch, ref.Epoch())
	}
	if st.ReplayedBatches == 0 {
		t.Fatal("crash recovery replayed nothing: the WAL tail past the checkpoint was lost")
	}
	applyBoth(t, d, mgr2.Store(), ref, []index.Mutation{{Insert: true, P: geom.Pt(7, 7)}})
}

// TestTornFinalFrame truncates the last WAL segment mid-frame (a crash
// during the final append): recovery must truncate the torn tail, come
// back exactly one batch behind, and accept that batch again with the
// same ids.
func TestTornFinalFrame(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	refAll, ids := reference(t, cfg)
	refPrefix, _ := reference(t, cfg)

	mgr, err := Open(cfg, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(33, cfg, ids)
	var last []index.Mutation
	for i := 0; i < 20; i++ {
		last = d.next()
		if i < 19 {
			if _, err := refPrefix.Apply(last); err != nil {
				t.Fatal(err)
			}
		}
		applyBoth(t, d, mgr.Store(), refAll, last)
	}
	mgr.Store().Close() // crash

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last frame: the final batch becomes a torn write.
	if err := os.Truncate(newest, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	mgr2, err := Open(cfg, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr2.Close(); mgr2.Store().Close() }()
	assertStoresEqual(t, "after torn frame", mgr2.Store(), refPrefix)
	if tb := mgr2.Stats().TruncatedBytes; tb <= 0 {
		t.Fatalf("TruncatedBytes = %d, want > 0", tb)
	}
	// The torn batch can be re-submitted and lands on the same ids the
	// uncrashed reference assigned.
	gids, err := mgr2.Store().Apply(last)
	if err != nil {
		t.Fatal(err)
	}
	_ = gids
	assertStoresEqual(t, "after re-submitting torn batch", mgr2.Store(), refAll)
}

// TestCheckpointPruneLifecycle forces frequent checkpoints over tiny
// segments and asserts the directory converges: at most KeepCheckpoints
// checkpoint files, old segments pruned, and the directory still
// recovers exactly.
func TestCheckpointPruneLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	ref, ids := reference(t, cfg)

	mgr, err := Open(cfg, Options{Dir: dir, Sync: SyncOff, CheckpointEvery: 8, SegmentBytes: 256, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(44, cfg, ids)
	for i := 0; i < 100; i++ {
		applyBoth(t, d, mgr.Store(), ref, d.next())
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints written")
	}
	if st.PrunedSegments == 0 {
		t.Fatal("no segments pruned despite frequent checkpoints over tiny segments")
	}
	cks, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) > 2 {
		t.Fatalf("%d checkpoint files on disk, want <= 2", len(cks))
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != st.Segments {
		t.Fatalf("%d segment files on disk, stats say %d", len(segs), st.Segments)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	mgr.Store().Close()

	mgr2, err := Open(cfg, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr2.Close(); mgr2.Store().Close() }()
	assertStoresEqual(t, "after prune lifecycle", mgr2.Store(), ref)
}

func TestParseSyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "off"} {
		if p, err := ParseSyncPolicy(s); err != nil || string(p) != s {
			t.Fatalf("ParseSyncPolicy(%q) = %q, %v", s, p, err)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestOpenRejectsMismatchedDir(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	mgr, err := Open(cfg, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	mgr.Store().Close()

	bad := cfg
	bad.Bounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(9, 9))
	if _, err := Open(bad, Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a data dir created under different bounds")
	}
	noNet := cfg
	noNet.Network, noNet.NetworkSites = nil, nil
	if _, err := Open(noNet, Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a data dir created with a network side for a plane-only config")
	}
	withRestore := cfg
	withRestore.Restore = &index.Restore{}
	if _, err := Open(withRestore, Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a caller-supplied Restore")
	}
	if _, err := Open(cfg, Options{}); err == nil {
		t.Fatal("Open accepted an empty Dir")
	}
}
