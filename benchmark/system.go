package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	insqclient "repro/internal/client"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// system is one booted instance of the program under test plus the
// harness's connections to it. Everything from the store up is built the
// way insqd builds it.
type system struct {
	in   *inputs
	dir  string
	pipe *obs.Pipeline // nil when observability is off
	reg  *obs.Registry

	mgr  *wal.Manager
	eng  *engine.Engine
	sids []engine.SessionID // session index -> engine id
	mdl  *model
	rng  *rand.Rand // mutator's generator (probe jitter, churn points)

	// last[i] is the trajectory index of session i's latest update; the
	// update loops publish it, the mutator aims probes with it and the
	// oracle reads the final positions from it.
	last []atomic.Int32

	pushes *pushTracker
	// dataEvents counts received push events caused by a data update.
	dataEvents atomic.Uint64

	// In-process push consumer.
	sub     *stream.Subscriber
	subDone chan struct{}

	// Serve-mode plumbing: the server's two listeners and the harness's
	// two connections (one ingest stream, one SSE subscription).
	httpSrv *http.Server
	ingLn   net.Listener
	srvWG   sync.WaitGroup
	cl      *insqclient.Client
	ing     *insqclient.Ingest
	stopSSE func()
	// onAck receives the acks of pipelined (Send) frames; whoever is
	// pipelining installs it. ackDone closes when the ack stream ends.
	onAck   atomic.Pointer[func(api.IngestAck)]
	ackDone chan struct{}
	refused atomic.Int64 // pipelined frames the server did not accept
	// sseHook, when set, receives SSE events instead of the push tracker
	// (the wire probe times the SSE leg on its own).
	sseHook atomic.Pointer[func(added []int, at time.Time)]

	probe  probeCounts // operation counts of the microprobes
	closed bool
}

// newPipeline wires observability exactly as insqd does with -metrics.
func newPipeline() (*obs.Pipeline, *obs.Registry) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	slow := obs.NewSlowLog(slog.New(slog.NewTextHandler(os.Stderr, nil)), obs.Thresholds{
		Batch:   50 * time.Millisecond,
		Fsync:   20 * time.Millisecond,
		Publish: 20 * time.Millisecond,
	})
	return obs.NewPipeline(reg, slow), reg
}

// indexConfig is the store configuration for a fresh boot or a recovery.
func (in *inputs) indexConfig(pipe *obs.Pipeline) (index.Config, error) {
	cfg := index.Config{Fanout: fanout, Bounds: bounds, Obs: pipe}
	if in.sp.Network {
		g, err := in.graph()
		if err != nil {
			return cfg, err
		}
		cfg.Network, cfg.NetworkSites = g, in.sites
	} else {
		cfg.Objects = in.objects
	}
	return cfg, nil
}

// openEngine opens (or recovers) the data directory and starts an engine
// on it: wal.Open + engine.New, the boot path shared by set-up and
// recovery.
func openEngine(in *inputs, dir string, pipe *obs.Pipeline) (*wal.Manager, *engine.Engine, error) {
	cfg, err := in.indexConfig(pipe)
	if err != nil {
		return nil, nil, err
	}
	mgr, err := wal.Open(cfg, wal.Options{Dir: dir, Obs: pipe})
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(engine.Config{Shards: shards, Fanout: fanout, WAL: mgr, Obs: pipe})
	if err != nil {
		mgr.Close()
		return nil, nil, err
	}
	return mgr, eng, nil
}

// setup boots a system in dir until the warm-up could start: index built,
// WAL open, sessions created and placed, probe objects seeded, subscriber
// (and in serve mode the server and both client connections) attached.
func setup(in *inputs, dir string, withObs bool) (*system, error) {
	s := &system{in: in, dir: dir, mdl: newModel(in), pushes: newPushTracker()}
	s.rng = rand.New(rand.NewSource(in.sub(6, 0)))
	if withObs {
		s.pipe, s.reg = newPipeline()
	}
	var err error
	if s.mgr, s.eng, err = openEngine(in, dir, s.pipe); err != nil {
		return nil, err
	}
	n := in.sp.Sessions
	s.sids = make([]engine.SessionID, n)
	s.last = make([]atomic.Int32, n)
	for i := range s.sids {
		if in.sp.Network {
			s.sids[i], err = s.eng.CreateNetworkSession(in.k[i], rho)
		} else {
			s.sids[i], err = s.eng.CreateSession(in.k[i], rho)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	at := make([]int, n) // every session starts at trajectory index 0
	if _, err := s.place(at); err != nil {
		s.close()
		return nil, err
	}
	if err := s.seedProbes(); err != nil {
		s.close()
		return nil, err
	}
	if in.sp.Serve {
		err = s.connectServe()
	} else {
		err = s.subscribe()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// place sends every session to trajectory index at[i] in one engine batch
// and returns the answers; any per-session error fails the whole call.
func (s *system) place(at []int) ([][]int, error) {
	return placeOn(s.eng, s.in, s.sids, at)
}

func placeOn(eng *engine.Engine, in *inputs, sids []engine.SessionID, at []int) ([][]int, error) {
	var res []engine.UpdateResult
	var err error
	if in.sp.Network {
		batch := make([]engine.NetworkLocationUpdate, len(sids))
		for i, sid := range sids {
			batch[i] = engine.NetworkLocationUpdate{Session: sid, Pos: in.netAt(i, at[i])}
		}
		res, err = eng.UpdateNetworkBatchCtx(context.Background(), batch)
	} else {
		batch := make([]engine.LocationUpdate, len(sids))
		for i, sid := range sids {
			batch[i] = engine.LocationUpdate{Session: sid, Pos: in.planeAt(i, at[i])}
		}
		res, err = eng.UpdateBatchCtx(context.Background(), batch)
	}
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("placing session %d: %w", i, r.Err)
		}
		out[i] = r.KNN
	}
	return out, nil
}

// seedProbes inserts the initial removable objects in one batch, so the
// mutator's removals always take an object that has been live for a while:
// a probe is removed SeedProbes removals after its insert, which leaves
// its push seconds to arrive before a missing one is called lost.
func (s *system) seedProbes() error {
	taken := make(map[int]bool)
	muts := make([]index.Mutation, 0, s.in.sp.SeedProbes)
	for range s.in.sp.SeedProbes {
		m, ok := s.randomInsert(taken)
		if !ok {
			return errors.New("no free vertex for a seed probe")
		}
		muts = append(muts, m)
	}
	ids, err := s.eng.ApplyMutations(context.Background(), muts)
	if err != nil {
		return err
	}
	for i, m := range muts {
		s.mdl.insert(ids[i], m.P)
	}
	return nil
}

// randomInsert draws an insert somewhere in the data space: a uniform
// point, or a vertex that carries no site yet.
//
// taken lists vertices already claimed by earlier inserts of the same
// batch (the model only learns of them once the batch is acknowledged);
// the chosen vertex is added to it.
func (s *system) randomInsert(taken map[int]bool) (index.Mutation, bool) {
	if !s.in.sp.Network {
		return index.Mutation{Insert: true, P: geom.Pt(s.rng.Float64()*space, s.rng.Float64()*space)}, true
	}
	nv := s.in.sp.Grid * s.in.sp.Grid
	for try := 0; try < 64; try++ {
		if v := s.rng.Intn(nv); !s.mdl.sites[v] && !taken[v] {
			taken[v] = true
			return index.Mutation{Network: true, Insert: true, ID: v}, true
		}
	}
	return index.Mutation{}, false
}

// probeInsert builds the insert that must enter target session i's kNN
// set: a point on (a hair off) its last reported position, or the nearer
// free endpoint of the edge it stands on.
func (s *system) probeInsert(i int) (index.Mutation, bool) {
	j := int(s.last[i].Load())
	if !s.in.sp.Network {
		p := s.in.planeAt(i, j)
		// The jitter keeps a probe from coinciding exactly with an earlier
		// one (the index folds exact duplicates into the existing object).
		p.X = min(max(p.X+(s.rng.Float64()-0.5)*0.02, 0), space)
		p.Y = min(max(p.Y+(s.rng.Float64()-0.5)*0.02, 0), space)
		return index.Mutation{Insert: true, P: p}, true
	}
	pos := s.in.netAt(i, j)
	near, far := pos.U, pos.V
	if pos.T > 0.5 {
		near, far = far, near
	}
	for _, v := range []int{near, far} {
		if !s.mdl.sites[v] {
			return index.Mutation{Network: true, Insert: true, ID: v}, true
		}
	}
	return index.Mutation{}, false
}

// subscribe attaches the in-process push consumer to the watched
// sessions. The queue is as deep as the watch list, so the broker never
// has to drop: every event the engine publishes must arrive.
func (s *system) subscribe() error {
	ids := s.watchedIDs()
	s.sub = s.eng.Stream().Subscribe(len(ids), ids...)
	if s.sub == nil {
		return errors.New("stream broker closed")
	}
	s.subDone = make(chan struct{})
	go func() {
		defer close(s.subDone)
		for {
			select {
			case <-s.sub.Done():
				return
			case <-s.sub.Wake():
				for ev, ok := s.sub.Next(); ok; ev, ok = s.sub.Next() {
					s.onEvent(string(ev.Cause), ev.Added)
				}
			}
		}
	}()
	return nil
}

// watchedIDs are the engine ids of the watched sessions.
func (s *system) watchedIDs() []uint64 {
	ids := make([]uint64, len(s.in.watched))
	for j, i := range s.in.watched {
		ids[j] = uint64(s.sids[i])
	}
	return ids
}

// onEvent is the push consumer shared by both transports.
func (s *system) onEvent(cause string, added []int) {
	now := time.Now()
	if cause == string(stream.CauseData) {
		s.dataEvents.Add(1)
	}
	if len(added) > 0 {
		s.pushes.received(added, now)
	}
}

// connectServe puts the insqd frontend in front of the engine — HTTP API
// with SSE on one listener, raw-TCP ingest on another — and opens the
// harness's two connections.
func (s *system) connectServe() error {
	srv := server.New(s.eng, server.Options{
		Obs:            s.pipe,
		RequestTimeout: requestTimeout,
		StatsTTL:       statsTTL,
		CoalesceWindow: coalesceWindow,
	})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.srvWG.Add(1)
	go func() {
		defer s.srvWG.Done()
		s.httpSrv.Serve(httpLn) // returns on Close
	}()
	if s.ingLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	s.srvWG.Add(1)
	go func() {
		defer s.srvWG.Done()
		srv.ServeIngest(s.ingLn) // returns when the listener closes
	}()

	s.cl = insqclient.New("http://"+httpLn.Addr().String(), insqclient.Options{Retries: -1})
	s.stopSSE, err = s.cl.Subscribe(s.watchedIDs(), func(ev api.SessionEvent) {
		if h := s.sseHook.Load(); h != nil {
			(*h)(ev.Added, time.Now())
			return
		}
		s.onEvent(ev.Cause, ev.Added)
	})
	if err != nil {
		return err
	}
	s.ing, err = insqclient.DialIngestTCP(context.Background(), s.ingLn.Addr().String(), s.in.sp.Window)
	if err != nil {
		return err
	}
	s.ackDone = make(chan struct{})
	go func() {
		defer close(s.ackDone)
		for ack := range s.ing.Acks() {
			if h := s.onAck.Load(); h != nil {
				(*h)(ack)
			}
		}
	}()
	return nil
}

// close tears the system down in insqd's shutdown order, removes its data
// directory and drops every reference to it, so the next collection frees
// what it held. Safe on a partially built system.
func (s *system) close() {
	if s.closed {
		return
	}
	if s.ing != nil {
		s.ing.Close()
		<-s.ackDone
	}
	if s.stopSSE != nil {
		s.stopSSE()
	}
	if s.sub != nil {
		s.sub.Close()
		<-s.subDone
	}
	if s.ingLn != nil {
		s.ingLn.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.srvWG.Wait()
	if s.mgr != nil {
		s.mgr.Close() // before the engine: the final checkpoint pins a snapshot
	}
	if s.eng != nil {
		s.eng.Close()
	}
	os.RemoveAll(s.dir)
	*s = system{closed: true}
}

// finalPositions snapshots every session's last trajectory index.
func (s *system) finalPositions() []int {
	at := make([]int, len(s.last))
	for i := range at {
		at[i] = int(s.last[i].Load())
	}
	return at
}
