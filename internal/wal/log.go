package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/obs"
)

// On-disk layout. A segment file starts with an 8-byte magic, then a
// sequence of frames, the ingest wire's (index.AppendFrame): [len uint32
// LE][crc32c uint32 LE][payload]. len is the payload length; the CRC covers
// the payload only. A frame that ends past the file, fails its CRC, or has
// an absurd length is the torn tail of a crash — recovery truncates the
// segment there and discards every later segment (records after a tear are
// unreachable: their epochs would leave a gap).
const (
	segMagic        = "INSQWAL1"
	maxFramePayload = 64 << 20
)

// ErrClosed is returned by appends after Close (or after Close raced the
// append's group-commit wait).
var ErrClosed = errors.New("wal: closed")

// segInfo is one segment file. Segments are named wal-%016x.seg by the
// epoch of the first record written to them, so names are strictly
// increasing and the covered epoch ranges are recoverable from a
// directory listing alone: segment i holds records with epochs in
// [first_i, first_{i+1}).
type segInfo struct {
	first uint64
	path  string
}

// segLog is the append side of the segmented log. One writer goroutine at
// a time appends (the store's mutation lock already serializes batches);
// the group-commit machinery exists for the fsync side: under the
// `always` policy a background syncer fsyncs once per generation, so
// every appender blocked on the same generation shares one fsync.
type segLog struct {
	dir      string
	policy   SyncPolicy
	segBytes int64
	obs      *obs.Pipeline // nil when observability is off

	mu       sync.Mutex
	syncWork *sync.Cond // wakes the always-policy syncer
	syncDone *sync.Cond // wakes appenders waiting for their generation
	f        *os.File
	w        *bufio.Writer
	size     int64 // current segment size including buffered bytes
	segs     []segInfo
	closed   bool
	err      error // sticky first I/O error; the log is dead after

	appendGen uint64 // generation of the newest buffered append
	syncedGen uint64 // generation covered by the last fsync

	fsyncs  uint64
	fsyncNS int64
	pruned  uint64

	stop     chan struct{}
	loopDone chan struct{}
}

// openSegLog opens the log for appending after recovery: it reopens the
// last surviving segment at its validated length, or creates a fresh one
// named by nextEpoch when the directory holds none.
func openSegLog(dir string, segs []segInfo, nextEpoch uint64, policy SyncPolicy, syncEvery time.Duration, segBytes int64, o *obs.Pipeline) (*segLog, error) {
	l := &segLog{
		dir:      dir,
		policy:   policy,
		segBytes: segBytes,
		obs:      o,
		segs:     segs,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	l.syncWork = sync.NewCond(&l.mu)
	l.syncDone = sync.NewCond(&l.mu)
	if len(segs) == 0 {
		if err := l.createSegmentLocked(nextEpoch); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.f, l.w, l.size = f, bufio.NewWriterSize(f, 1<<16), fi.Size()
	}
	switch policy {
	case SyncAlways:
		go l.alwaysLoop()
	case SyncInterval:
		go l.intervalLoop(syncEvery)
	default:
		close(l.loopDone)
	}
	return l, nil
}

// createSegmentLocked starts a new segment named by the epoch of its
// first record. The magic is buffered with the records (one file, one
// fsync), but the directory entry is fsynced immediately: a record must
// never be acknowledged durable inside a file whose name could vanish
// with the directory's page cache.
func (l *segLog) createSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f, l.w, l.size = f, w, int64(len(segMagic))
	l.segs = append(l.segs, segInfo{first: first, path: path})
	return nil
}

// Append buffers one framed record. firstEpoch is the epoch of the
// record's first mutation; it names the next segment if this append
// rotates. Under the `always` policy, Append returns only after an fsync
// covers the record; under `interval`/`off` it returns once buffered and
// the background ticker (or nothing but segment rotation and Close) makes
// it durable.
func (l *segLog) Append(firstEpoch uint64, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("wal: record payload %d bytes exceeds the %d frame limit", len(payload), maxFramePayload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	// wal.disk.full: a transient ENOSPC before any byte is buffered — the
	// append fails but the log stays healthy (unlike a write/fsync error,
	// which is sticky).
	if err := fault.WALDiskFull.Fire(); err != nil {
		return err
	}
	need := int64(index.FrameHeaderLen + len(payload))
	if l.size+need > l.segBytes && l.size > int64(len(segMagic)) {
		if err := l.rotateLocked(firstEpoch); err != nil {
			return l.failLocked(err)
		}
	}
	if _, err := l.w.Write(index.AppendFrame(l.w.AvailableBuffer(), payload)); err != nil {
		return l.failLocked(err)
	}
	l.size += need
	l.appendGen++
	if l.policy != SyncAlways {
		return nil
	}
	gen := l.appendGen
	l.syncWork.Signal()
	for l.syncedGen < gen && l.err == nil && !l.closed {
		l.syncDone.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.syncedGen < gen {
		return ErrClosed
	}
	return nil
}

// rotateLocked finishes the current segment (flush, fsync, close — its
// records become durable regardless of policy) and opens the next one.
func (l *segLog) rotateLocked(nextFirst uint64) error {
	if err := l.syncFileLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.createSegmentLocked(nextFirst)
}

// syncFileLocked flushes the buffer and fsyncs the current segment,
// advancing the sync generation over everything appended so far.
func (l *segLog) syncFileLocked() error {
	target := l.appendGen
	start := time.Now()
	// wal.fsync.delay: a hung disk — the stall happens holding l.mu, just
	// like a real fsync that never returns.
	fault.WALFsyncDelay.Fire()
	if err := l.w.Flush(); err != nil {
		return err
	}
	// wal.fsync.err: surfaced through the normal error return, so callers
	// failLocked it and the log goes sticky-dead like a real fsync error.
	if err := fault.WALFsyncErr.Fire(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	d := time.Since(start)
	l.fsyncs++
	l.fsyncNS += d.Nanoseconds()
	if l.obs.Enabled() {
		l.obs.Observe(obs.StageFsync, d)
		if l.policy != SyncAlways {
			// Background fsyncs have no request; slow ones log without a
			// trace. Under the always policy the appender's commit wait
			// logs instead, with the trace (see Manager.AppendBatch).
			l.obs.SlowFsync("", d)
		}
	}
	l.syncedGen = target
	l.syncDone.Broadcast()
	return nil
}

// sizeBytes returns the open segment's size including buffered bytes.
func (l *segLog) sizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// failLocked records the log's first I/O error and wakes every waiter;
// all later operations return it. A WAL that cannot write must fail the
// batches it covers, not limp along with holes.
func (l *segLog) failLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	l.syncWork.Broadcast()
	l.syncDone.Broadcast()
	return l.err
}

// alwaysLoop is the group-commit syncer of the `always` policy: it fsyncs
// whole generations, so N appenders blocked behind one slow fsync are
// covered together by the next. The loop outlives a sticky log error —
// it idles until reset clears the error — so a healed log keeps its
// syncer without respawning goroutines.
func (l *segLog) alwaysLoop() {
	defer close(l.loopDone)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closed && (l.err != nil || l.syncedGen == l.appendGen) {
			l.syncWork.Wait()
		}
		if l.closed {
			return
		}
		if err := l.syncFileLocked(); err != nil {
			l.failLocked(err)
		}
	}
}

// intervalLoop is the `interval` policy: flush+fsync on a fixed cadence,
// bounding the crash-loss window to one tick while keeping fsyncs off
// every append.
func (l *segLog) intervalLoop(every time.Duration) {
	defer close(l.loopDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil && l.syncedGen != l.appendGen {
				// A failed tick marks the log dead but keeps the ticker
				// alive: a later reset clears the error and the cadence
				// resumes without respawning the loop.
				if err := l.syncFileLocked(); err != nil {
					l.failLocked(err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// pruneTo deletes segments made obsolete by a checkpoint at epoch: a
// segment is removable once its successor's first epoch is <= epoch+1
// (every record it holds then predates the checkpoint). The active
// segment always survives.
func (l *segLog) pruneTo(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) >= 2 && l.segs[1].first <= epoch+1 {
		if err := os.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("wal: prune segment: %w", err)
		}
		l.segs = l.segs[1:]
		l.pruned++
	}
	return nil
}

// statsSnapshot reads the log-side counters.
func (l *segLog) statsSnapshot() (fsyncs uint64, fsyncNS int64, segments int, pruned uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncs, l.fsyncNS, len(l.segs), l.pruned
}

// Close makes everything appended so far durable (under every policy,
// including `off`) and closes the segment. Appends after Close fail with
// ErrClosed.
//
// Ordering matters: the background syncer is stopped and joined *before*
// the final flush, so Close can never fsync concurrently with an
// in-flight interval tick (or re-sync a generation the tick just
// covered). An in-flight tick holds l.mu through its fsync, so by the
// time Close acquires the lock below, the tick has fully completed and
// its generation is recorded in syncedGen.
func (l *segLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.stop)
	l.syncWork.Broadcast()
	l.syncDone.Broadcast()
	l.mu.Unlock()
	<-l.loopDone

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.err == nil && l.syncedGen != l.appendGen {
		err = l.syncFileLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.err != nil && err == nil {
		err = l.err
	}
	return err
}

// dead reports whether the log has taken a sticky I/O error.
func (l *segLog) dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// reset discards the log and starts over on a fresh segment whose first
// record will carry epoch nextFirst. It is the heal half of degraded
// mode and is only safe when the caller guarantees no appends are in
// flight and everything the old segments held is covered by a checkpoint
// at nextFirst-1: the old file (dead handle or not) is closed, every
// segment is deleted, the sticky error is cleared, and a fresh segment
// is created and fsynced — the fsync both proves the disk accepts writes
// again and makes the new segment's magic durable. Any failure re-marks
// the log dead and is returned.
func (l *segLog) reset(nextFirst uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.err = nil
	if l.f != nil {
		l.f.Close() // best-effort: often a dead handle
	}
	for _, sg := range l.segs {
		if err := os.Remove(sg.path); err != nil {
			l.err = fmt.Errorf("wal: reset: %w", err)
			return l.err
		}
	}
	l.segs = l.segs[:0]
	if err := l.createSegmentLocked(nextFirst); err != nil {
		l.err = err
		return err
	}
	// The fsync also realigns the generations (syncedGen = appendGen):
	// every append the old log buffered was either fsynced (and is now
	// covered by the caller's checkpoint) or failed back to its appender.
	if err := l.syncFileLocked(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// scanSegments lists the directory's segment files ascending by first
// epoch. Foreign files are ignored.
func scanSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		hexa := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		first, perr := strconv.ParseUint(hexa, 16, 64)
		if perr != nil || len(hexa) != 16 {
			continue
		}
		segs = append(segs, segInfo{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// replayResult is what a recovery scan learned about the log.
type replayResult struct {
	segs           []segInfo // surviving segments, torn tails truncated
	truncatedBytes int64     // bytes dropped at (and after) the first tear
}

// replaySegments streams every valid record to apply, in order, handling
// the crash cases: a torn or corrupt frame truncates its segment at the
// last valid frame boundary and discards all later segments; a segment
// with a torn magic is deleted outright (it never held a durable record —
// records are only acknowledged after the magic reached the same file).
// Decode errors inside a CRC-valid frame and apply errors abort recovery:
// they are corruption or version skew, not a crash artifact.
func replaySegments(segs []segInfo, apply func(firstEpoch uint64, muts []index.Mutation) error) (replayResult, error) {
	res := replayResult{}
	for i, sg := range segs {
		keep, clean, err := replaySegment(sg.path, apply, &res)
		if err != nil {
			return res, err
		}
		if keep {
			res.segs = append(res.segs, sg)
		}
		if !clean {
			for _, late := range segs[i+1:] {
				fi, serr := os.Stat(late.path)
				if serr == nil {
					res.truncatedBytes += fi.Size()
				}
				if rerr := os.Remove(late.path); rerr != nil {
					return res, fmt.Errorf("wal: drop post-tear segment: %w", rerr)
				}
			}
			break
		}
	}
	return res, nil
}

// replaySegment replays one segment. keep reports whether the file still
// exists (possibly truncated); clean reports whether it ended at a clean
// frame boundary (false means the scan must stop here).
func replaySegment(path string, apply func(uint64, []index.Mutation) error, res *replayResult) (keep, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, false, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, false, fmt.Errorf("wal: replay: %w", err)
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	var magic [len(segMagic)]byte
	if _, rerr := io.ReadFull(br, magic[:]); rerr != nil || string(magic[:]) != segMagic {
		res.truncatedBytes += size
		if err := os.Remove(path); err != nil {
			return false, false, fmt.Errorf("wal: drop torn segment: %w", err)
		}
		return false, false, nil
	}
	off := int64(len(segMagic))
	truncate := func() (bool, bool, error) {
		res.truncatedBytes += size - off
		if err := os.Truncate(path, off); err != nil {
			return false, false, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		return true, false, nil
	}
	for {
		// A frame may not claim more than the file still holds.
		payload, rerr := index.ReadFrame(br, int(min(maxFramePayload, size-off-index.FrameHeaderLen)))
		if rerr == io.EOF {
			return true, true, nil // clean end of segment
		}
		if rerr != nil {
			return truncate() // torn, oversized or corrupt: a crash's tail
		}
		first, muts, derr := decodeBatchRecord(payload)
		if derr != nil {
			return true, false, fmt.Errorf("wal: %s: record at offset %d: %w", path, off, derr)
		}
		if aerr := apply(first, muts); aerr != nil {
			return true, false, aerr
		}
		off += int64(index.FrameHeaderLen + len(payload))
	}
}

// syncDir fsyncs a directory so just-created (or renamed-in) entries
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
