// Package wal is the durability subsystem of the serving stack: a
// segmented, CRC32C-framed write-ahead log plus epoch checkpoints over
// the index store's immutable snapshots, and the crash recovery that
// rebuilds a store from them.
//
// The write path rides the store's existing batch pipeline: every
// index.Store.Apply batch is encoded (reusing index.Mutation) and
// appended — with a policy-dependent fsync — after the batch mutated the
// copy-on-write branch but before the snapshot is published, so no caller
// ever observes an epoch the log does not cover. Only object churn is
// logged; session location updates are soft state and cost nothing here.
//
// Checkpoints exploit the epoch-versioned snapshot store: a checkpoint
// takes the current immutable snapshot, serializes its logical state
// (live objects ascending by id, the next id to assign, the network site
// set) off the hot path, publishes it atomically (tmp + rename + dir
// fsync), and prunes WAL segments every retained checkpoint covers.
//
// Recovery is deterministic replay: load the newest valid checkpoint,
// rebuild the store so it answers — and keeps assigning ids — exactly as
// the instance that wrote it (vortree.Restore burns removed ids), then
// re-apply the WAL tail through Store.Apply, truncating at the first torn
// or corrupt frame. The recovered store is byte-for-byte equivalent in
// every query answer to one that never crashed.
package wal

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs before an append returns (group-committed: every
	// appender blocked on the same generation shares one fsync). No
	// acknowledged batch is ever lost.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs on a fixed cadence (Options.SyncEvery); a crash
	// loses at most the last tick's batches. The recommended serving
	// policy.
	SyncInterval SyncPolicy = "interval"
	// SyncOff never fsyncs on the append path (only on segment rotation
	// and Close); the OS decides when records reach disk.
	SyncOff SyncPolicy = "off"
)

// ParseSyncPolicy parses a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncOff:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// Defaults for the zero fields of Options.
const (
	DefaultSyncEvery       = 2 * time.Millisecond
	DefaultSegmentBytes    = 64 << 20
	DefaultCheckpointEvery = 4096
	DefaultKeepCheckpoints = 2
	DefaultDegradeAfter    = 3
	DefaultProbeEvery      = 250 * time.Millisecond
)

// ErrDegraded fail-fasts appends while the manager is in degraded mode:
// the log is unavailable, writes are rejected until the heal probe
// restores durability. Reads are unaffected — degraded mode exists so
// the serving side can keep answering queries while the disk is sick.
var ErrDegraded = errors.New("wal: degraded: durability unavailable")

// Options parameterizes Open.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval cadence (default DefaultSyncEvery).
	SyncEvery time.Duration
	// SegmentBytes rotates segments past this size (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// CheckpointEvery takes a checkpoint every this many epochs (default
	// DefaultCheckpointEvery).
	CheckpointEvery uint64
	// KeepCheckpoints retains this many newest checkpoints (default
	// DefaultKeepCheckpoints); WAL segments are pruned only past the
	// oldest retained one.
	KeepCheckpoints int
	// Obs, when non-nil, times appends and fsyncs (wal_append / fsync
	// stages), reports slow fsyncs, and registers WAL gauges (segment
	// bytes, checkpoint age) on its registry.
	Obs *obs.Pipeline
	// DegradeAfter flips the manager into degraded read-only mode after
	// this many consecutive append failures (default DefaultDegradeAfter).
	// A sticky log error (a failed fsync kills the log) degrades
	// immediately regardless of the count.
	DegradeAfter int
	// ProbeEvery is the degraded-mode heal cadence (default
	// DefaultProbeEvery): each tick the probe checkpoints the current
	// snapshot and rebuilds the log on a fresh segment; if both succeed —
	// the disk accepts writes again — degraded mode ends.
	ProbeEvery time.Duration
	// Logger receives degrade/heal transitions (default slog.Default()).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Sync == "" {
		o.Sync = SyncInterval
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = DefaultKeepCheckpoints
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = DefaultDegradeAfter
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = DefaultProbeEvery
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Stats is a point-in-time snapshot of the durability counters.
type Stats struct {
	// Policy is the active fsync policy.
	Policy SyncPolicy
	// AppendedBatches / AppendedMutations / AppendedBytes count the WAL
	// appends since Open (bytes include frame headers).
	AppendedBatches   uint64
	AppendedMutations uint64
	AppendedBytes     uint64
	// Fsyncs counts fsyncs of segment files; FsyncTotal is the wall time
	// inside them (flush + fsync).
	Fsyncs     uint64
	FsyncTotal time.Duration
	// Segments is the live segment-file count; PrunedSegments counts
	// segments deleted by checkpointing.
	Segments       int
	PrunedSegments uint64
	// Checkpoints counts checkpoints written since Open; CheckpointEpoch
	// and CheckpointBytes describe the newest one (the epoch also counts
	// checkpoints inherited from a previous run). CheckpointFailures
	// counts background checkpoint attempts that errored.
	Checkpoints        uint64
	CheckpointEpoch    uint64
	CheckpointBytes    uint64
	CheckpointFailures uint64
	// ReplayedBatches / ReplayedMutations count the WAL records recovery
	// re-applied on top of the checkpoint; TruncatedBytes is what the torn
	// tail (and everything after it) cost; RecoveredEpoch is the epoch the
	// store resumed at; Recovery is the wall time of the whole boot path
	// (checkpoint load + rebuild + replay).
	ReplayedBatches   uint64
	ReplayedMutations uint64
	TruncatedBytes    int64
	RecoveredEpoch    uint64
	Recovery          time.Duration
	// Degraded reports whether the manager is currently in degraded
	// read-only mode; DegradeEvents / HealEvents count the round trips.
	Degraded      bool
	DegradeEvents uint64
	HealEvents    uint64
}

// Manager owns the durability pipeline of one store: it is the store's
// Durability hook on the write path, the background checkpointer, and the
// recovery bootstrapper. Open builds the store; the caller serves from
// Store() and must Close the manager BEFORE closing the store/engine, so
// the final checkpoint still runs (a closed store checkpoints nothing).
type Manager struct {
	opts  Options
	store *index.Store
	log   *segLog
	buf   []byte // append-encoding scratch; Apply serializes AppendBatch

	appendedBatches atomic.Uint64
	appendedMuts    atomic.Uint64
	appendedBytes   atomic.Uint64
	lastEpoch       atomic.Uint64 // newest appended epoch
	ckpts           atomic.Uint64
	ckptEpoch       atomic.Uint64
	ckptBytes       atomic.Uint64
	ckptFails       atomic.Uint64
	haveCkpt        atomic.Bool

	// Recovery facts, written once in Open.
	replayBatches  uint64
	replayMuts     uint64
	truncBytes     int64
	recoveredEpoch uint64
	recovery       time.Duration

	// Degraded mode. degraded is only set from AppendBatch's error path
	// (serialized under the store's mutation lock) and only cleared by the
	// heal probe; while it is set both the engine and AppendBatch itself
	// fail-fast writes, so no append can interleave with a heal.
	degraded      atomic.Bool
	consecFails   atomic.Int64
	degradeEvents atomic.Uint64
	healEvents    atomic.Uint64

	ckptMu    sync.Mutex // serializes checkpointNow
	ckptCh    chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open recovers (or initializes) the data directory and returns a manager
// whose store is ready to serve: newest valid checkpoint loaded, WAL tail
// replayed, torn tail truncated, log reopened for appending, and the
// durability hook attached — batches applied from here on are logged
// before they publish. A directory with no checkpoint is initialized from
// cfg's seed state and immediately checkpointed, so the directory is
// self-contained from the first boot (cfg.Objects/NetworkSites are
// ignored on every later one). cfg.Restore must be nil; Bounds and
// Network must match what the directory was created with.
func Open(cfg index.Config, opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if cfg.Restore != nil {
		return nil, errors.New("wal: cfg.Restore is owned by Open")
	}
	opts = opts.withDefaults()
	if _, err := ParseSyncPolicy(string(opts.Sync)); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	os.Remove(filepath.Join(opts.Dir, ckptTmpName)) // stray tmp of a crashed checkpoint

	m := &Manager{opts: opts, ckptCh: make(chan struct{}, 1), done: make(chan struct{})}
	ck, ckBytes, err := loadNewestCheckpoint(opts.Dir)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if ck.bounds != cfg.Bounds {
			return nil, fmt.Errorf("wal: data dir bounds %v do not match configured bounds %v", ck.bounds, cfg.Bounds)
		}
		if ck.hasNet != (cfg.Network != nil) {
			return nil, fmt.Errorf("wal: data dir network side (%t) does not match configuration (%t)", ck.hasNet, cfg.Network != nil)
		}
		cfg.Restore = &index.Restore{
			Epoch:    ck.epoch,
			HasPlane: ck.hasPlane,
			Plane:    ck.objs,
			NextID:   ck.nextID,
			Sites:    ck.sites,
		}
		m.ckptEpoch.Store(ck.epoch)
		m.ckptBytes.Store(uint64(ckBytes))
		m.haveCkpt.Store(true)
	}
	st, err := index.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	m.store = st
	segs, err := scanSegments(opts.Dir)
	if err != nil {
		st.Close()
		return nil, err
	}
	res, err := replaySegments(segs, func(first uint64, muts []index.Mutation) error {
		cur := st.Epoch()
		last := first + uint64(len(muts)) - 1
		if last <= cur {
			return nil // fully covered by the checkpoint
		}
		if first != cur+1 {
			return fmt.Errorf("wal: replay gap: record covers epochs %d..%d but the store is at %d", first, last, cur)
		}
		if _, aerr := st.Apply(muts); aerr != nil {
			return fmt.Errorf("wal: replay epoch %d: %w", first, aerr)
		}
		m.replayBatches++
		m.replayMuts += uint64(len(muts))
		return nil
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	m.truncBytes = res.truncatedBytes
	lg, err := openSegLog(opts.Dir, res.segs, st.Epoch()+1, opts.Sync, opts.SyncEvery, opts.SegmentBytes, opts.Obs)
	if err != nil {
		st.Close()
		return nil, err
	}
	m.log = lg
	m.lastEpoch.Store(st.Epoch())
	m.recoveredEpoch = st.Epoch()
	if ck == nil {
		// First boot of this directory: make it self-contained before any
		// traffic, so a restart never depends on cfg reproducing the seed.
		if err := m.checkpointNow(); err != nil {
			lg.Close()
			st.Close()
			return nil, err
		}
	}
	st.SetDurability(m)
	m.registerMetrics(opts.Obs.Registry())
	m.wg.Add(2)
	go m.checkpointLoop()
	go m.probeLoop()
	m.recovery = time.Since(start)
	return m, nil
}

// registerMetrics exports the durability gauges the next PRs (scale-out,
// backpressure) watch: log size, checkpoint age, append and fsync
// volume. All read existing atomics; a scrape never touches the log lock
// except for the segment size, which takes it briefly.
func (m *Manager) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("insq_wal_segments",
		"Live WAL segment files.",
		func() float64 { _, _, segments, _ := m.log.statsSnapshot(); return float64(segments) })
	reg.GaugeFunc("insq_wal_segment_bytes",
		"Bytes in the open WAL segment (rotates at the segment cap).",
		func() float64 { return float64(m.log.sizeBytes()) })
	reg.GaugeFunc("insq_wal_checkpoint_age_epochs",
		"Epochs appended since the newest checkpoint.",
		func() float64 {
			last, ck := m.lastEpoch.Load(), m.ckptEpoch.Load()
			if last <= ck {
				return 0
			}
			return float64(last - ck)
		})
	reg.CounterFunc("insq_wal_appended_batches_total",
		"Batches appended to the WAL.",
		func() float64 { return float64(m.appendedBatches.Load()) })
	reg.CounterFunc("insq_wal_appended_bytes_total",
		"Bytes appended to the WAL (frame headers included).",
		func() float64 { return float64(m.appendedBytes.Load()) })
	reg.CounterFunc("insq_wal_fsyncs_total",
		"Fsyncs of WAL segment files.",
		func() float64 { fsyncs, _, _, _ := m.log.statsSnapshot(); return float64(fsyncs) })
	reg.CounterFunc("insq_wal_checkpoints_total",
		"Checkpoints written since open.",
		func() float64 { return float64(m.ckpts.Load()) })
	reg.CounterFunc("insq_wal_degrade_events_total",
		"Times the durability layer entered degraded read-only mode.",
		func() float64 { return float64(m.degradeEvents.Load()) })
	reg.CounterFunc("insq_wal_heal_events_total",
		"Times the heal probe restored durability after degraded mode.",
		func() float64 { return float64(m.healEvents.Load()) })
}

// Store returns the recovered (or freshly initialized) store the manager
// logs for. The caller owns its lifecycle; close the manager first.
func (m *Manager) Store() *index.Store { return m.store }

// AppendBatch implements index.Durability: it runs inside Store.Apply,
// after the batch mutated the branch and before the snapshot publishes.
// While the manager is degraded it fail-fasts with ErrDegraded; append
// failures count toward the degrade threshold (a sticky log error
// degrades immediately).
func (m *Manager) AppendBatch(ctx context.Context, firstEpoch uint64, muts []index.Mutation) error {
	if m.degraded.Load() {
		return ErrDegraded
	}
	o := m.opts.Obs
	var start time.Time
	if o.Enabled() {
		start = time.Now()
	}
	// wal.append.err: the append fails before anything reaches the log.
	if err := fault.WALAppendErr.Fire(); err != nil {
		m.noteAppendError()
		return err
	}
	m.buf = appendBatchRecord(m.buf[:0], firstEpoch, muts)
	if err := m.log.Append(firstEpoch, m.buf); err != nil {
		m.noteAppendError()
		return err
	}
	m.consecFails.Store(0)
	if o.Enabled() {
		d := time.Since(start)
		o.Observe(obs.StageWALAppend, d)
		if m.opts.Sync == SyncAlways {
			// Under the always policy the append wait IS the group-commit
			// fsync, and it is the only fsync that can carry the request's
			// trace — the background loop's own timing has no request.
			o.SlowFsync(obs.TraceID(ctx), d)
		}
	}
	m.appendedBatches.Add(1)
	m.appendedMuts.Add(uint64(len(muts)))
	m.appendedBytes.Add(uint64(len(m.buf) + index.FrameHeaderLen))
	last := firstEpoch + uint64(len(muts)) - 1
	m.lastEpoch.Store(last)
	if last-m.ckptEpoch.Load() >= m.opts.CheckpointEvery {
		select {
		case m.ckptCh <- struct{}{}:
		default: // one already pending
		}
	}
	return nil
}

// noteAppendError counts a durability-append failure and enters degraded
// mode when the failures are persistent: either the log took a sticky
// I/O error (it cannot accept another byte) or DegradeAfter consecutive
// appends failed (transient errors like ENOSPC that keep happening).
func (m *Manager) noteAppendError() {
	n := m.consecFails.Add(1)
	if m.log.dead() || n >= int64(m.opts.DegradeAfter) {
		if m.degraded.CompareAndSwap(false, true) {
			m.degradeEvents.Add(1)
			m.opts.Logger.Warn("wal: entering degraded mode: writes rejected until the disk heals",
				"consecutive_failures", n, "log_dead", m.log.dead())
		}
	}
}

// Degraded reports whether the manager is in degraded read-only mode.
func (m *Manager) Degraded() bool { return m.degraded.Load() }

// probeLoop drives the degraded-mode heal: every ProbeEvery tick while
// degraded, try to restore durability and clear the flag.
func (m *Manager) probeLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			if m.degraded.Load() {
				m.tryHeal()
			}
		}
	}
}

// tryHeal attempts to restore durability. Checkpoint first: writing a
// checkpoint at the current published epoch both proves the disk accepts
// writes again and makes everything the old log held (including any torn
// tail the failure left behind) redundant, so the log can then be rebuilt
// from scratch on a fresh segment. Only when both steps succeed does
// degraded mode end; any failure leaves it set for the next tick.
//
// Safety: while degraded, AppendBatch fail-fasts (and the engine rejects
// mutations before Apply), so no append touches the log during the
// rebuild and the published epoch cannot move under the checkpoint.
func (m *Manager) tryHeal() {
	if m.store.Closed() {
		return // shutdown is racing us
	}
	epoch := m.store.Epoch()
	if err := m.checkpointNow(); err != nil {
		m.ckptFails.Add(1)
		m.opts.Logger.Warn("wal: heal probe: checkpoint failed", "err", err)
		return
	}
	if err := m.log.reset(epoch + 1); err != nil {
		m.opts.Logger.Warn("wal: heal probe: log rebuild failed", "err", err)
		return
	}
	m.consecFails.Store(0)
	m.degraded.Store(false)
	m.healEvents.Add(1)
	m.opts.Logger.Info("wal: healed: durability restored, writes re-enabled",
		"epoch", epoch)
}

// checkpointLoop runs checkpoints off the hot path; AppendBatch nudges it
// whenever the WAL grows CheckpointEvery epochs past the newest
// checkpoint.
func (m *Manager) checkpointLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case <-m.ckptCh:
			if err := m.checkpointNow(); err != nil {
				m.ckptFails.Add(1)
			}
		}
	}
}

// Checkpoint takes a checkpoint of the current snapshot now, bypassing
// the CheckpointEvery cadence.
func (m *Manager) Checkpoint() error { return m.checkpointNow() }

// checkpointNow serializes the current snapshot, publishes the checkpoint
// atomically and prunes WAL segments and old checkpoints. It is a no-op
// when no epoch was applied since the newest checkpoint, and when the
// store is already closed (the WAL alone still recovers the tail).
func (m *Manager) checkpointNow() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if m.store.Closed() {
		return nil
	}
	s := m.store.Current()
	epoch := s.Epoch()
	if m.haveCkpt.Load() && epoch <= m.ckptEpoch.Load() {
		return nil
	}
	objs, nextID := s.PlaneObjects()
	payload := encodeCheckpoint(ckptState{
		epoch:    epoch,
		bounds:   m.store.Bounds(),
		hasPlane: s.Plane() != nil,
		objs:     objs,
		nextID:   nextID,
		hasNet:   s.Network() != nil,
		sites:    s.NetworkSites(),
	})
	n, err := writeCheckpoint(m.opts.Dir, epoch, payload)
	if err != nil {
		return err
	}
	m.ckpts.Add(1)
	m.ckptEpoch.Store(epoch)
	m.ckptBytes.Store(uint64(n))
	m.haveCkpt.Store(true)
	oldest, err := pruneCheckpoints(m.opts.Dir, m.opts.KeepCheckpoints)
	if err != nil {
		return err
	}
	return m.log.pruneTo(oldest)
}

// Stats returns a point-in-time snapshot of the durability counters.
func (m *Manager) Stats() Stats {
	fsyncs, fsyncNS, segments, pruned := m.log.statsSnapshot()
	return Stats{
		Policy:             m.opts.Sync,
		AppendedBatches:    m.appendedBatches.Load(),
		AppendedMutations:  m.appendedMuts.Load(),
		AppendedBytes:      m.appendedBytes.Load(),
		Fsyncs:             fsyncs,
		FsyncTotal:         time.Duration(fsyncNS),
		Segments:           segments,
		PrunedSegments:     pruned,
		Checkpoints:        m.ckpts.Load(),
		CheckpointEpoch:    m.ckptEpoch.Load(),
		CheckpointBytes:    m.ckptBytes.Load(),
		CheckpointFailures: m.ckptFails.Load(),
		ReplayedBatches:    m.replayBatches,
		ReplayedMutations:  m.replayMuts,
		TruncatedBytes:     m.truncBytes,
		RecoveredEpoch:     m.recoveredEpoch,
		Recovery:           m.recovery,
		Degraded:           m.degraded.Load(),
		DegradeEvents:      m.degradeEvents.Load(),
		HealEvents:         m.healEvents.Load(),
	}
}

// Close takes a final checkpoint (while the store is still open), makes
// the log durable and closes it. Call before closing the store/engine.
// Close is idempotent.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
		var errs []error
		if err := m.checkpointNow(); err != nil {
			errs = append(errs, err)
		}
		if err := m.log.Close(); err != nil {
			errs = append(errs, err)
		}
		m.closeErr = errors.Join(errs...)
	})
	return m.closeErr
}
