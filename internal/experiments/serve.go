package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	insqclient "repro/internal/client"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/workload"
)

// ServeBenchResult is the wire-protocol A/B record written to
// BENCH_serve.json by `bench -exp SERVE`. It boots a real insqd serving
// stack (HTTP mux + binary ingest) in-process and drives the identical
// location-update workload through both ingestion paths: one JSON
// request per batch versus the binary streaming protocol on persistent
// /v1/ingest connections. Both rates come from the same process on the
// same engine, so the speedup — the number benchguard gates — is
// machine-consistent by construction.
type ServeBenchResult struct {
	Sessions int     `json:"sessions"`
	Objects  int     `json:"objects"`
	Batch    int     `json:"batch"`
	Streams  int     `json:"streams"`
	Workers  int     `json:"workers"`
	Reps     int     `json:"reps"`
	RepMS    float64 `json:"rep_ms"`

	JSONRequests      uint64  `json:"json_requests"`
	JSONUpdatesPerSec float64 `json:"json_updates_per_sec"`
	JSONRTTP50US      float64 `json:"json_rtt_p50_us"`
	JSONRTTP95US      float64 `json:"json_rtt_p95_us"`

	BinaryFrames        uint64  `json:"binary_frames"`
	BinaryUpdatesPerSec float64 `json:"binary_updates_per_sec"`
	BinaryRTTP50US      float64 `json:"binary_rtt_p50_us"`
	BinaryRTTP95US      float64 `json:"binary_rtt_p95_us"`

	// Speedup is binary over JSON throughput on the identical workload.
	Speedup float64 `json:"speedup"`

	// Server-side ingest pump counters for the binary phase (from
	// /v1/stats): how many frames the coalescing pump merged away, and the
	// wire cost per update.
	FramesTotal      uint64  `json:"frames_total"`
	CoalescedBatches uint64  `json:"coalesced_batches"`
	CoalesceFactor   float64 `json:"coalesce_factor"`
	BytesInPerUpdate float64 `json:"bytes_in_per_update"`

	// Healthy-path admission rejections. Nothing in this workload should
	// trip shed or deadline control, so benchguard gates both at zero.
	ShedJSON   uint64 `json:"shed_json"`
	ShedBinary uint64 `json:"shed_binary"`
}

// String renders the result as a short table for the harness output.
func (r ServeBenchResult) String() string {
	return fmt.Sprintf(
		"SERVE sessions=%d objects=%d batch=%d streams=%d workers=%d reps=%d rep=%.0fms\n"+
			"      json:   %8.0f updates/s  requests=%-8d rtt p50=%.0fus p95=%.0fus  shed=%d\n"+
			"      binary: %8.0f updates/s  frames=%-8d   rtt p50=%.0fus p95=%.0fus  shed=%d\n"+
			"      speedup=%.2fx coalesce=%.2fx (coalesced=%d/%d) bytes_in/update=%.1f",
		r.Sessions, r.Objects, r.Batch, r.Streams, r.Workers, r.Reps, r.RepMS,
		r.JSONUpdatesPerSec, r.JSONRequests, r.JSONRTTP50US, r.JSONRTTP95US, r.ShedJSON,
		r.BinaryUpdatesPerSec, r.BinaryFrames, r.BinaryRTTP50US, r.BinaryRTTP95US, r.ShedBinary,
		r.Speedup, r.CoalesceFactor, r.CoalescedBatches, r.FramesTotal, r.BytesInPerUpdate)
}

// serveWorker owns a disjoint slice of sessions and walks them through
// small jittered location batches — the per-request shape of a mobile
// fleet pushing position fixes, where the wire overhead dominates the
// engine work and the protocol choice actually shows.
type serveWorker struct {
	sids    []uint64
	pos     []geom.Point
	rng     *rand.Rand
	cursor  int
	entries []api.UpdateEntry

	ops     uint64
	updates uint64
	shed    uint64
	rtts    []time.Duration
}

func (w *serveWorker) next(bounds geom.Rect, batch int) []api.UpdateEntry {
	w.entries = w.entries[:0]
	for i := 0; i < batch; i++ {
		j := w.cursor % len(w.sids)
		w.cursor++
		p := w.pos[j]
		p.X += (w.rng.Float64() - 0.5) * 10
		p.Y += (w.rng.Float64() - 0.5) * 10
		if !bounds.Contains(p) {
			p = geom.Pt(bounds.Max.X/2, bounds.Max.Y/2)
		}
		w.pos[j] = p
		w.entries = append(w.entries, api.UpdateEntry{Session: w.sids[j], X: p.X, Y: p.Y})
	}
	return w.entries
}

// ServeBench measures the SERVE record: JSON-per-request vs binary
// streaming ingest against an in-process insqd serving stack. Reps
// alternate the phase order so neither path systematically benefits from
// warm-up or drift; totals accumulate across reps and the rates divide
// by measured wall time per phase.
func ServeBench(cfg Config) (ServeBenchResult, error) {
	const (
		objects = 20000
		k       = 5
		rho     = 1.6
		shards  = 8
		batch   = 4 // entries per request/frame: the wire-bound shape
		streams = 4 // persistent binary connections
		depth   = 8 // concurrent batches in flight per stream
		reps    = 3
	)
	sessions := 2048
	repDur := 1200 * time.Millisecond
	if cfg.Scale > 1 {
		sessions /= cfg.Scale
		repDur /= time.Duration(cfg.Scale)
		if repDur < 300*time.Millisecond {
			repDur = 300 * time.Millisecond
		}
	}
	workers := streams * depth // same offered concurrency on both paths

	e, err := engine.New(engine.Config{
		Shards:  shards,
		Bounds:  Bounds,
		Objects: workload.Uniform(objects, Bounds, cfg.seed(42)),
	})
	if err != nil {
		return ServeBenchResult{}, err
	}
	defer e.Close()

	hs := server.New(e, server.Options{CoalesceWindow: time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServeBenchResult{}, err
	}
	httpSrv := &http.Server{Handler: hs.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// Sessions are created on the engine directly (session setup is not
	// under test) and placed once so both phases move a warm fleet.
	rng := rand.New(rand.NewSource(cfg.seed(7)))
	sids := make([]uint64, sessions)
	pos := make([]geom.Point, sessions)
	place := make([]engine.LocationUpdate, sessions)
	for i := range sids {
		sid, err := e.CreateSession(k, rho)
		if err != nil {
			return ServeBenchResult{}, err
		}
		sids[i] = uint64(sid)
		pos[i] = geom.Pt(rng.Float64()*Bounds.Max.X, rng.Float64()*Bounds.Max.Y)
		place[i] = engine.LocationUpdate{Session: sid, Pos: pos[i]}
	}
	if _, err := e.UpdateBatchCtx(context.Background(), place); err != nil {
		return ServeBenchResult{}, err
	}

	// Two worker fleets over the same session partition, one per phase,
	// so each phase's position walk stays self-consistent across reps.
	newFleet := func(seed int64) []*serveWorker {
		fleet := make([]*serveWorker, workers)
		per := sessions / workers
		for i := range fleet {
			lo, hi := i*per, (i+1)*per
			if i == workers-1 {
				hi = sessions
			}
			fleet[i] = &serveWorker{
				sids: sids[lo:hi],
				pos:  append([]geom.Point(nil), pos[lo:hi]...),
				rng:  rand.New(rand.NewSource(seed + int64(i))),
			}
		}
		return fleet
	}
	jsonFleet := newFleet(cfg.seed(1000))
	binFleet := newFleet(cfg.seed(2000))

	cl := insqclient.New(base, insqclient.Options{Retries: -1})

	// The binary connections persist across reps — connection reuse is
	// half the protocol's point.
	ctx := context.Background()
	conns := make([]*insqclient.Ingest, streams)
	for i := range conns {
		in, err := cl.DialIngest(ctx, 0)
		if err != nil {
			return ServeBenchResult{}, fmt.Errorf("dial ingest: %w", err)
		}
		conns[i] = in
		defer in.Close()
	}

	runPhase := func(fleet []*serveWorker, do func(w *serveWorker, i int, entries []api.UpdateEntry) error) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		deadline := time.Now().Add(repDur)
		t0 := time.Now()
		for i, w := range fleet {
			wg.Add(1)
			go func(w *serveWorker, i int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					entries := w.next(Bounds, batch)
					if err := do(w, i, entries); err != nil {
						errs <- err
						return
					}
				}
			}(w, i)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		select {
		case err := <-errs:
			return 0, err
		default:
		}
		return elapsed, nil
	}

	jsonBatch := func(w *serveWorker, _ int, entries []api.UpdateEntry) error {
		t0 := time.Now()
		resp, err := cl.Update(entries)
		rtt := time.Since(t0)
		if err != nil {
			var apiErr *insqclient.APIError
			if errors.As(err, &apiErr) && apiErr.Transient() {
				w.shed++
				return nil
			}
			return err
		}
		w.ops++
		w.updates += uint64(len(resp.Results))
		w.rtts = append(w.rtts, rtt)
		return nil
	}
	binBatch := func(w *serveWorker, i int, entries []api.UpdateEntry) error {
		in := conns[i%streams]
		t0 := time.Now()
		ack, err := in.Call(api.IngestBatch{Updates: entries})
		rtt := time.Since(t0)
		if err != nil {
			return err
		}
		switch ack.Code {
		case api.CodeOK:
			w.ops++
			w.updates += uint64(ack.Applied)
			w.rtts = append(w.rtts, rtt)
			return nil
		case api.CodeOverloaded, api.CodeDegraded, api.CodeUnavailable:
			w.shed++
			return nil
		default:
			return fmt.Errorf("ingest ack %s: %s", ack.Code, ack.Message)
		}
	}

	var jsonElapsed, binElapsed time.Duration
	for rep := 0; rep < reps; rep++ {
		phases := []func() (time.Duration, error){
			func() (time.Duration, error) { return runPhase(jsonFleet, jsonBatch) },
			func() (time.Duration, error) { return runPhase(binFleet, binBatch) },
		}
		into := []*time.Duration{&jsonElapsed, &binElapsed}
		if rep%2 == 1 { // alternate order to cancel drift
			phases[0], phases[1] = phases[1], phases[0]
			into[0], into[1] = into[1], into[0]
		}
		for p, run := range phases {
			d, err := run()
			if err != nil {
				return ServeBenchResult{}, err
			}
			*into[p] += d
		}
	}

	sum := func(fleet []*serveWorker) (ops, updates, shed uint64, hist pushHist) {
		for _, w := range fleet {
			ops += w.ops
			updates += w.updates
			shed += w.shed
			for _, d := range w.rtts {
				hist.add(d)
			}
		}
		return
	}
	jsonOps, jsonUpdates, jsonShed, jsonHist := sum(jsonFleet)
	binOps, binUpdates, binShed, binHist := sum(binFleet)

	st, err := cl.Stats()
	if err != nil {
		return ServeBenchResult{}, err
	}

	res := ServeBenchResult{
		Sessions: sessions,
		Objects:  objects,
		Batch:    batch,
		Streams:  streams,
		Workers:  workers,
		Reps:     reps,
		RepMS:    float64(repDur.Milliseconds()),

		JSONRequests:      jsonOps,
		JSONUpdatesPerSec: float64(jsonUpdates) / jsonElapsed.Seconds(),
		JSONRTTP50US:      jsonHist.quantileUS(0.50),
		JSONRTTP95US:      jsonHist.quantileUS(0.95),

		BinaryFrames:        binOps,
		BinaryUpdatesPerSec: float64(binUpdates) / binElapsed.Seconds(),
		BinaryRTTP50US:      binHist.quantileUS(0.50),
		BinaryRTTP95US:      binHist.quantileUS(0.95),

		ShedJSON:   jsonShed,
		ShedBinary: binShed,
	}
	if res.JSONUpdatesPerSec > 0 {
		res.Speedup = res.BinaryUpdatesPerSec / res.JSONUpdatesPerSec
	}
	if st.Ingest != nil {
		res.FramesTotal = st.Ingest.FramesTotal
		res.CoalescedBatches = st.Ingest.CoalescedBatches
		res.CoalesceFactor = st.Ingest.CoalesceFactor
		if binUpdates > 0 {
			res.BytesInPerUpdate = float64(st.Ingest.BytesIn) / float64(binUpdates)
		}
	}
	return res, nil
}
