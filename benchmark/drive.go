package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/index"
)

// op is one completed update call: an engine batch or an ingest frame.
type op struct {
	end int64 // completion time on the run clock, ns
	lat int64 // caller-observed latency, ns
	n   int32 // entries sent
	ok  int32 // entries answered without error
}

// mutOp is one mutator call. Times are measured from due, the instant the
// fixed schedule wanted the call sent, so a stall that delays later calls
// is charged to them.
type mutOp struct {
	due  int64 // scheduled send time, ns on the run clock
	late int64 // how long after due the call actually started
	lat  int64 // ack time minus due
	n    int32 // mutations in the call
	ok   bool
}

// pushSample is one freshness probe: an insert that must enter a watched
// session's kNN set, timed from the insert's due time to the subscriber
// receiving the delta that carries the new id.
type pushSample struct {
	due int64
	lat int64
}

// pushTracker matches probe inserts with the push events that announce
// them. Either side may come first: the event can reach the subscriber
// before the insert call has returned the new object's id.
type pushTracker struct {
	mu      sync.Mutex
	base    time.Time
	pending map[int]pendingPush // id -> probe waiting for its event
	early   map[int]time.Time   // id -> event that beat its registration
	samples []pushSample
	spans   *spanBuf
	lost    int
}

type pendingPush struct {
	due    int64
	called time.Time
	parent uint64 // the mutation span that caused the push
}

func newPushTracker() *pushTracker {
	return &pushTracker{pending: make(map[int]pendingPush), early: make(map[int]time.Time)}
}

// received is called by the subscriber for every event with additions.
func (t *pushTracker) received(added []int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range added {
		if p, ok := t.pending[id]; ok {
			delete(t.pending, id)
			t.record(p, now)
		} else {
			t.early[id] = now
		}
	}
}

// expect registers a probe once its insert is acknowledged with id.
func (t *pushTracker) expect(id int, p pendingPush) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// An early event counts only if it came after this insert was issued
	// (network ids are vertices and recur).
	if at, ok := t.early[id]; ok && !at.Before(p.called) {
		delete(t.early, id)
		t.record(p, at)
		return
	}
	delete(t.early, id)
	t.pending[id] = p
}

// forget drops a probe that is being removed; if its event never came the
// push was lost.
func (t *pushTracker) forget(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.pending[id]; ok {
		delete(t.pending, id)
		t.lost++
	}
	delete(t.early, id)
}

func (t *pushTracker) record(p pendingPush, at time.Time) {
	recv := int64(at.Sub(t.base))
	t.samples = append(t.samples, pushSample{due: p.due, lat: recv - p.due})
	t.spans.add(t.spans.id(), p.parent, p.parent, "stream.push", int64(p.called.Sub(t.base)), recv)
}

func (t *pushTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// phaseCfg shapes one measured phase.
type phaseCfg struct {
	warm    time.Duration
	window  time.Duration
	windows int
	tr      *tracer // nil: tracing off
}

// phaseData is everything a phase recorded, raw.
type phaseData struct {
	base   time.Time       // zero of the run clock
	bounds []int64         // windows+1 boundary times, ns on the run clock
	cpu    []time.Duration // process user+sys CPU at each boundary
	ops    []op
	muts   []mutOp
	pushes []pushSample
	lost   int // probes whose push never arrived
	heapMB float64
	// engStat is the engine's statistics at each boundary.
	engStat []engine.Stats
	// Sampled at each boundary, traced phases only: the registry's stage
	// histograms and the data-event count.
	stages     []*scrape
	dataEvents []uint64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives the workload against s: a warm-up, then cfg.windows
// back-to-back measurement windows. Update callers are closed-loop (each
// waits for its reply before sending again); the mutator is open-loop on
// a fixed schedule. Returns once every caller has stopped and outstanding
// pushes have drained.
func runPhase(s *system, cfg phaseCfg) *phaseData {
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	s.pushes.base = base
	s.pushes.spans = cfg.tr.buf()

	var stop atomic.Bool
	var wg sync.WaitGroup
	sp := s.in.sp

	// Update callers.
	var opLogs [][]op
	if sp.Serve {
		opLogs = make([][]op, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			opLogs[0] = s.pipelineSender(&stop, now, cfg.tr)
		}()
	} else {
		opLogs = make([][]op, sp.Readers)
		per := sp.Sessions / sp.Readers
		for r := 0; r < sp.Readers; r++ {
			lo, hi := r*per, (r+1)*per
			if r == sp.Readers-1 {
				hi = sp.Sessions
			}
			wg.Add(1)
			go func(r, lo, hi int) {
				defer wg.Done()
				opLogs[r] = s.reader(lo, hi, &stop, now, cfg.tr.buf(), 0)
			}(r, lo, hi)
		}
	}

	// Mutator.
	total := cfg.warm + time.Duration(cfg.windows)*cfg.window
	var muts []mutOp
	wg.Add(1)
	go func() {
		defer wg.Done()
		muts = s.mutator(int64(total), &stop, now, cfg.tr.buf())
	}()

	// Coordinator: sample the clock and CPU at every window boundary.
	d := &phaseData{base: base}
	sample := func() {
		d.bounds = append(d.bounds, now())
		d.cpu = append(d.cpu, cpuTime())
		if st, err := s.eng.Stats(); err == nil {
			d.engStat = append(d.engStat, st)
		}
		if cfg.tr != nil && s.reg != nil {
			if sg, err := scrapeRegistry(s.reg); err == nil {
				d.stages = append(d.stages, sg)
			}
			d.dataEvents = append(d.dataEvents, s.dataEvents.Load())
		}
	}
	time.Sleep(cfg.warm)
	sample()
	for w := 1; w <= cfg.windows; w++ {
		time.Sleep(time.Until(base.Add(cfg.warm + time.Duration(w)*cfg.window)))
		sample()
	}
	stop.Store(true)
	wg.Wait()
	d.heapMB = heapLiveMB()

	// Let the last pushes land, then close the books on them.
	for deadline := time.Now().Add(2 * time.Second); s.pushes.outstanding() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.pushes.mu.Lock()
	d.pushes = s.pushes.samples
	d.lost = s.pushes.lost + len(s.pushes.pending)
	s.pushes.samples, s.pushes.lost = nil, 0
	clear(s.pushes.pending)
	s.pushes.mu.Unlock()

	for _, l := range opLogs {
		d.ops = append(d.ops, l...)
	}
	d.muts = muts
	return d
}

// reader is one closed-loop caller: it walks its sessions [lo, hi) in
// order, Batch at a time, each call one Engine.UpdateBatchCtx under the
// request timeout insqd would apply.
// maxOps > 0 ends the loop after that many calls (the engine microprobe).
func (s *system) reader(lo, hi int, stop *atomic.Bool, now func() int64, tb *spanBuf, maxOps int) []op {
	in, sp := s.in, s.in.sp
	cur := make([]cursor, hi-lo)
	for i := range cur {
		cur[i].idx = s.last[lo+i].Load()
	}
	plane := make([]engine.LocationUpdate, sp.Batch)
	network := make([]engine.NetworkLocationUpdate, sp.Batch)
	idx := make([]int32, sp.Batch)
	log := make([]op, 0, 1<<16)
	next := lo
	for !stop.Load() && (maxOps <= 0 || len(log) < maxOps) {
		spanStart := now()
		n := min(sp.Batch, hi-next)
		for b := 0; b < n; b++ {
			i := next + b
			j := cur[i-lo].next(sp.TrajLen)
			idx[b] = int32(j)
			if sp.Network {
				network[b] = engine.NetworkLocationUpdate{Session: s.sids[i], Pos: in.netAt(i, j)}
			} else {
				plane[b] = engine.LocationUpdate{Session: s.sids[i], Pos: in.planeAt(i, j)}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		t0 := now()
		var res []engine.UpdateResult
		var err error
		if sp.Network {
			res, err = s.eng.UpdateNetworkBatchCtx(ctx, network[:n])
		} else {
			res, err = s.eng.UpdateBatchCtx(ctx, plane[:n])
		}
		t1 := now()
		cancel()
		o := op{end: t1, lat: t1 - t0, n: int32(n)}
		if err == nil {
			for b, r := range res {
				if r.Err == nil && len(r.KNN) == in.k[next+b] {
					o.ok++
				}
			}
		}
		for b := 0; b < n; b++ {
			s.last[next+b].Store(idx[b])
		}
		log = append(log, o)
		if tb != nil {
			id := tb.id()
			tb.add(tb.id(), id, id, "engine.update_batch", t0, t1)
			tb.add(id, 0, id, "harness.reader", spanStart, now())
		}
		if next += n; next >= hi {
			next = lo
		}
	}
	return log
}

// pipelineSender is the serve-mode update caller: one ingest connection
// kept Window frames deep. Send blocks while the window is full, so the
// loop is closed: a frame goes out only when an ack came back.
func (s *system) pipelineSender(stop *atomic.Bool, now func() int64, tr *tracer) []op {
	in, sp := s.in, s.in.sp
	tb, ab := tr.buf(), tr.buf()

	type sent struct {
		t0   int64
		span uint64
	}
	log := make([]op, 0, 1<<18)
	table := newAckTable(now, func(f sent, ack api.IngestAck, at int64) {
		o := op{end: at, lat: at - f.t0, n: int32(sp.Batch)}
		if ack.Code == api.CodeOK {
			o.ok = int32(ack.Applied)
		} else {
			s.refused.Add(1)
		}
		log = append(log, o)
		ab.add(f.span, 0, f.span, "harness.frame", f.t0, at)
	})
	s.onAck.Store(&table.onAck)
	defer s.onAck.Store(nil)

	cur := make([]cursor, sp.Sessions)
	for i := range cur {
		cur[i].idx = s.last[i].Load()
	}
	entries := make([]api.UpdateEntry, sp.Batch)
	next := 0
	for !stop.Load() {
		for b := range entries {
			i := (next + b) % sp.Sessions
			j := cur[i].next(sp.TrajLen)
			p := in.planeAt(i, j)
			entries[b] = api.UpdateEntry{Session: uint64(s.sids[i]), X: p.X, Y: p.Y}
			s.last[i].Store(int32(j))
		}
		next = (next + sp.Batch) % sp.Sessions
		f := sent{t0: now(), span: tb.id()}
		seq, err := s.ing.Send(api.IngestBatch{Updates: entries})
		t1 := now()
		if err != nil {
			table.failed(func() { log = append(log, op{end: t1, lat: t1 - f.t0, n: int32(sp.Batch)}) })
			break
		}
		tb.add(tb.id(), f.span, f.span, "client.send", f.t0, t1)
		table.onSend(seq, f)
	}
	// Drain: wait for the acks of everything in flight.
	for deadline := time.Now().Add(requestTimeout); table.inflight() > 0 && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	table.failed(func() {
		for range table.sent { // never acknowledged: failed frames
			log = append(log, op{end: now(), lat: int64(requestTimeout), n: int32(sp.Batch)})
		}
	})
	return log
}

// ackTable pairs what a pipelining sender recorded about a frame with the
// frame's ack. Either can come first: the ack of a frame can arrive (on the
// connection's reader goroutine) before Send has returned the sequence
// number to the sender. done runs once per frame, under the table's lock.
type ackTable[S any] struct {
	mu    sync.Mutex
	now   func() int64
	sent  map[uint64]S
	early map[uint64]earlyAck
	done  func(s S, ack api.IngestAck, at int64)
	// onAck is the handler to install on the connection.
	onAck func(api.IngestAck)
}

type earlyAck struct {
	ack api.IngestAck
	at  int64
}

func newAckTable[S any](now func() int64, done func(S, api.IngestAck, int64)) *ackTable[S] {
	t := &ackTable[S]{now: now, sent: make(map[uint64]S), early: make(map[uint64]earlyAck), done: done}
	t.onAck = func(ack api.IngestAck) {
		at := t.now()
		t.mu.Lock()
		defer t.mu.Unlock()
		if f, ok := t.sent[ack.Seq]; ok {
			delete(t.sent, ack.Seq)
			t.done(f, ack, at)
		} else {
			t.early[ack.Seq] = earlyAck{ack, at}
		}
	}
	return t
}

// onSend records a frame Send has just returned seq for.
func (t *ackTable[S]) onSend(seq uint64, f S) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.early[seq]; ok {
		delete(t.early, seq)
		t.done(f, e.ack, e.at)
	} else {
		t.sent[seq] = f
	}
}

func (t *ackTable[S]) inflight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sent)
}

// failed runs fn under the table's lock, for bookkeeping that shares state
// with done.
func (t *ackTable[S]) failed(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn()
}

// mutator is the open-loop writer: call j is due at j/MutRate seconds and
// is sent then, or at once when the loop is running behind. It returns
// every call it made; the caller bins them by due time.
func (s *system) mutator(total int64, stop *atomic.Bool, now func() int64, tb *spanBuf) []mutOp {
	sp := s.in.sp
	interval := float64(time.Second) / sp.MutRate
	var log []mutOp
	target := 0
	for j := 0; ; j++ {
		due := int64(float64(j) * interval)
		if due >= total || stop.Load() {
			return log
		}
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		started := now()

		// Compose the call.
		var muts []index.Mutation
		probe := -1 // index in muts of the push probe
		ins, rem := sp.MutIns, sp.MutRem
		if sp.Alternate {
			if j%2 == 0 {
				rem = 0
			} else {
				ins = 0
			}
		}
		taken := make(map[int]bool)
		for a := 0; a < ins; a++ {
			if a == 0 {
				// Aim at the next target whose spot is free.
				for try := 0; try < len(s.in.targets) && probe < 0; try++ {
					i := s.in.targets[target%len(s.in.targets)]
					target++
					if m, ok := s.probeInsert(i); ok {
						probe = len(muts)
						muts = append(muts, m)
						taken[m.ID] = true
					}
				}
				continue
			}
			if m, ok := s.randomInsert(taken); ok {
				muts = append(muts, m)
			}
		}
		var removed []int
		for r := 0; r < rem; r++ {
			id, ok := s.mdl.oldest()
			if !ok {
				break
			}
			removed = append(removed, id)
			s.pushes.forget(id)
			muts = append(muts, index.Mutation{ID: id, Network: sp.Network})
		}
		if len(muts) == 0 {
			continue
		}

		spanID := tb.id()
		called := time.Now()
		ids, err := s.applyMutations(muts, tb, spanID, now)
		acked := now()
		m := mutOp{due: due, late: started - due, lat: acked - due, n: int32(len(muts)), ok: err == nil}
		log = append(log, m)
		tb.add(spanID, 0, spanID, "harness.mutation", started, acked)
		if err != nil {
			continue // the model only ever holds acknowledged mutations
		}
		for a, mu := range muts {
			if mu.Insert {
				s.mdl.insert(ids[a], mu.P)
			}
		}
		for _, id := range removed {
			s.mdl.remove(id)
		}
		if probe >= 0 {
			s.pushes.expect(ids[probe], pendingPush{due: due, called: called, parent: spanID})
		}
	}
}

// applyMutations sends one mutation call the way the workload's clients
// would: a mutation frame on the ingest connection, or ApplyMutations
// in-process. It returns the ids the system assigned.
func (s *system) applyMutations(muts []index.Mutation, tb *spanBuf, parent uint64, now func() int64) ([]int, error) {
	t0 := now()
	if !s.in.sp.Serve {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		ids, err := s.eng.ApplyMutations(ctx, muts)
		tb.add(tb.id(), parent, parent, "engine.apply_mutations", t0, now())
		return ids, err
	}
	ack, err := s.ing.Call(api.IngestBatch{WantResults: true, Mutations: muts})
	tb.add(tb.id(), parent, parent, "client.call", t0, now())
	if err != nil {
		return nil, err
	}
	if ack.Code != api.CodeOK || len(ack.MutationIDs) != len(muts) {
		return nil, &ackError{ack}
	}
	return ack.MutationIDs, nil
}

type ackError struct{ ack api.IngestAck }

func (e *ackError) Error() string { return "ingest ack " + string(e.ack.Code) + ": " + e.ack.Message }
