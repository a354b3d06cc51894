package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
)

// recoveryCopies is how many crash images are recovered; recovery_s is
// the median over them.
const recoveryCopies = 3

// flushWait lets the interval-fsync ticker (2 ms) put every acknowledged
// record on disk before the crash image is taken: under that policy an
// acknowledged write may be lost only within one tick of the crash, so
// after this wait losing any is a failure.
const flushWait = 50 * time.Millisecond

// endState is what the harness knows the system must hold when the crash
// image is taken.
type endState struct {
	at      []int   // every session's final trajectory index
	answers [][]int // every session's pre-crash kNN answer
	epoch   uint64  // acknowledged mutations
}

// checks tallies the correctness checks made after the windows.
type checks struct {
	OracleSessions int `json:"oracle_sessions"`
	OracleWrong    int `json:"oracle_wrong"`
	EpochMismatch  int `json:"epoch_mismatch"`
	RecoveryChecks int `json:"recovery_checks"`
	RecoveryFailed int `json:"recovery_failed"`
	TailMutations  int `json:"tail_mutations"`
	TailFailed     int `json:"tail_failed"`
}

func (c checks) attempted() int64 {
	return int64(c.OracleSessions + 1 + c.RecoveryChecks + c.TailMutations)
}
func (c checks) failed() int64 {
	return int64(c.OracleWrong + c.EpochMismatch + c.RecoveryFailed + c.TailFailed)
}

// recoveryTimes are the timings of the crash-recovery phase.
type recoveryTimes struct {
	CheckpointS float64   `json:"checkpoint_s"`
	CopiesS     []float64 `json:"recovery_copies_s"`
	MedianS     float64   `json:"recovery_s"`
	// CheckpointLoadS recovers an image taken right after the checkpoint
	// (no tail): checkpoint load + index rebuild. Traced runs only.
	CheckpointLoadS float64 `json:"checkpoint_load_s,omitempty"`
	ReplayedMuts    uint64  `json:"replayed_mutations"`
	// HarnessHeapMB is the live heap once the crashed system is released
	// and only the harness's own data (inputs, model, logs) remains.
	HarnessHeapMB float64 `json:"harness_heap_mb"`
}

// applyTail applies exactly sp.TailMuts mutations after the checkpoint —
// inserts and removals in equal parts, 24 to a batch — so every recovery
// replays the same amount of log.
func (s *system) applyTail(c *checks) {
	const perBatch = 24
	left := s.in.sp.TailMuts
	for left > 0 {
		n := min(perBatch, left)
		var muts []index.Mutation
		var removed []int
		taken := make(map[int]bool)
		for a := 0; a < n/2; a++ {
			if m, ok := s.randomInsert(taken); ok {
				muts = append(muts, m)
			}
		}
		for len(muts) < n {
			id, ok := s.mdl.oldest()
			if !ok {
				break
			}
			removed = append(removed, id)
			muts = append(muts, index.Mutation{ID: id, Network: s.in.sp.Network})
		}
		for len(muts) < n { // nothing left to remove: top up with inserts
			m, ok := s.randomInsert(taken)
			if !ok {
				break
			}
			muts = append(muts, m)
		}
		left -= n
		c.TailMutations += len(muts)
		ids, err := s.eng.ApplyMutations(context.Background(), muts)
		if err != nil {
			c.TailFailed += len(muts)
			continue
		}
		for a, m := range muts {
			if m.Insert {
				s.mdl.insert(ids[a], m.P)
			}
		}
		for _, id := range removed {
			s.mdl.remove(id)
		}
	}
}

// states reads every session's current answer through Engine.State.
func states(eng *engine.Engine, sids []engine.SessionID) ([][]int, error) {
	out := make([][]int, len(sids))
	for i, sid := range sids {
		st, err := eng.State(sid)
		if err != nil {
			return nil, err
		}
		out[i] = st.KNN
	}
	return out, nil
}

// verifyEnd is the correctness oracle, run with mutations quiesced: every
// session is re-sent its last position (sessions nobody watches repair
// lazily, at their next update), then every session's Engine.State answer
// is compared with brute force over the harness's own model of the data.
func (s *system) verifyEnd(c *checks) (endState, error) {
	es := endState{at: s.finalPositions(), epoch: s.mdl.epoch}
	if _, err := s.place(es.at); err != nil {
		return es, err
	}
	var err error
	if es.answers, err = states(s.eng, s.sids); err != nil {
		return es, err
	}
	o, err := newOracle(s.in, s.mdl)
	if err != nil {
		return es, err
	}
	c.OracleSessions += len(es.answers)
	c.OracleWrong += o.countWrong(es.at, es.answers)
	st, err := s.eng.Stats()
	if err != nil {
		return es, err
	}
	if st.Epoch != es.epoch {
		c.EpochMismatch++
	}
	return es, nil
}

// copyDir copies a flat data directory (segments and checkpoints).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recoverCopy boots one crash image and times it to the first correct
// answer: wal.Open (checkpoint load, index rebuild, log replay) +
// engine.New + one session created, placed and checked against its
// pre-crash answer. Untimed, it then checks that the recovered data set is
// exactly the acknowledged one and that every session, re-placed,
// reproduces its pre-crash answer.
func recoverCopy(in *inputs, dir string, es endState, mdl *model, c *checks) (secs float64, replayed uint64, err error) {
	t0 := time.Now()
	mgr, eng, err := openEngine(in, dir, nil)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		mgr.Close()
		eng.Close()
		os.RemoveAll(dir)
	}()
	newSession := func(i int) (engine.SessionID, error) {
		if in.sp.Network {
			return eng.CreateNetworkSession(in.k[i], rho)
		}
		return eng.CreateSession(in.k[i], rho)
	}
	first, err := newSession(0)
	if err != nil {
		return 0, 0, err
	}
	ans, err := placeOn(eng, in, []engine.SessionID{first}, es.at[:1])
	secs = time.Since(t0).Seconds()
	c.RecoveryChecks++
	if err != nil || !sameIDs(ans[0], es.answers[0]) {
		c.RecoveryFailed++
	}

	// Equivalence, untimed.
	ws := mgr.Stats()
	replayed = ws.ReplayedMutations
	c.RecoveryChecks++
	if ws.RecoveredEpoch != es.epoch || !sameDataSet(mgr.Store().Current(), mdl) {
		c.RecoveryFailed++
	}
	sids := make([]engine.SessionID, in.sp.Sessions)
	sids[0] = first
	for i := 1; i < len(sids); i++ {
		if sids[i], err = newSession(i); err != nil {
			return secs, replayed, err
		}
	}
	c.RecoveryChecks += len(sids)
	got, err := placeOn(eng, in, sids, es.at)
	if err != nil {
		c.RecoveryFailed += len(sids)
		return secs, replayed, nil
	}
	for i := range got {
		if !sameIDs(got[i], es.answers[i]) {
			c.RecoveryFailed++
		}
	}
	return secs, replayed, nil
}

// sameDataSet compares a recovered snapshot with the harness model.
func sameDataSet(snap *index.Snapshot, mdl *model) bool {
	if mdl.network {
		sites := snap.NetworkSites()
		if len(sites) != len(mdl.sites) {
			return false
		}
		for _, v := range sites {
			if !mdl.sites[v] {
				return false
			}
		}
		return true
	}
	objs, _ := snap.PlaneObjects()
	if len(objs) != len(mdl.points) {
		return false
	}
	for _, o := range objs {
		if p, ok := mdl.points[o.ID]; !ok || p != o.P {
			return false
		}
	}
	return true
}

// crashAndRecover is the recovery phase, run after the windows with the
// mutator stopped: checkpoint, a fixed tail of mutations, the oracle
// check, then a crash image (the data directory copied while the manager
// is still live — it is never closed first, so no final checkpoint or
// flush tidies the image) recovered recoveryCopies times.
func (s *system) crashAndRecover(scratch string, c *checks, withLoadSplit bool) (recoveryTimes, error) {
	var rt recoveryTimes
	t0 := time.Now()
	if err := s.mgr.Checkpoint(); err != nil {
		return rt, fmt.Errorf("checkpoint: %w", err)
	}
	rt.CheckpointS = time.Since(t0).Seconds()
	var bare string
	if withLoadSplit {
		bare = filepath.Join(scratch, "image-bare")
		if err := copyDir(s.dir, bare); err != nil {
			return rt, err
		}
	}
	s.applyTail(c)
	es, err := s.verifyEnd(c)
	if err != nil {
		return rt, err
	}
	time.Sleep(flushWait)
	images := make([]string, recoveryCopies)
	for i := range images {
		images[i] = filepath.Join(scratch, fmt.Sprintf("image-%d", i))
		if err := copyDir(s.dir, images[i]); err != nil {
			return rt, err
		}
	}
	// The crashed instance is gone; release it before booting successors
	// so they recover into the memory a restarted process would have.
	in, mdl := s.in, s.mdl
	s.close()
	rt.HarnessHeapMB = heapLiveMB()

	for _, dir := range images {
		secs, replayed, err := recoverCopy(in, dir, es, mdl, c)
		if err != nil {
			return rt, err
		}
		rt.CopiesS = append(rt.CopiesS, secs)
		rt.ReplayedMuts = replayed
	}
	rt.MedianS = median(rt.CopiesS)
	if withLoadSplit {
		t0 := time.Now()
		mgr, eng, err := openEngine(in, bare, nil)
		if err != nil {
			return rt, err
		}
		rt.CheckpointLoadS = time.Since(t0).Seconds()
		mgr.Close()
		eng.Close()
		os.RemoveAll(bare)
	}
	return rt, nil
}
