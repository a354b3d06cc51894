// Command loadgen drives a closed-loop MkNN serving workload: thousands
// of RandomWaypoint clients, each a live query session, pushed through
// batched location updates as fast as the target sustains, with optional
// data-update churn racing the queries. It reports a throughput/latency
// table from both sides — client-observed round-trips split per endpoint
// (update batches vs. object mutations) and the server's per-update
// serving histogram.
//
// Two targets:
//
//	loadgen -addr http://localhost:8080       # a running insqd
//	loadgen -sessions 5000 -duration 10s      # in-process engine (no HTTP)
//
// The in-process mode measures the engine floor; the HTTP mode adds the
// JSON/TCP serving stack on top.
//
// With -subscribe N the first N sessions are watched over the push
// stream (SSE against insqd, the broker directly in-process) and the run
// additionally reports insert-to-push latency: the time from issuing an
// object insert to the moment a subscriber receives the kNN delta it
// caused, the end-to-end number the continuous-query subsystem is
// accountable for. Enable churn (-churn) or there is nothing to push.
//
// With -network the clients are road-network sessions walking random
// routes on the same synthetic street grid the server built (-network-grid
// and the shared -space/-seed knobs must match the server's), updates flow
// through /v1/network/update, and churn mutates the site set instead of
// the plane objects.
//
// Against HTTP targets every request retries 503s (up to three times,
// honoring Retry-After) — a restarting insqd replaying its WAL answers
// 503 until recovery publishes, and the load should ride through that
// window rather than die. -report-errors prints a per-endpoint table of
// error statuses, retries taken and transport failures so the recovery
// window (or any other unhealthiness) is visible instead of folded into
// generic error counts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	insq "repro"
	"repro/internal/api"
	insqclient "repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// target abstracts insqd-over-HTTP vs an in-process engine behind the
// operations the load loop needs.
type target interface {
	createSession(k int, rho float64, network bool) (uint64, error)
	closeSession(sid uint64) error
	update(entries []api.UpdateEntry) (*api.UpdateResponse, error)
	networkUpdate(entries []api.NetworkUpdateEntry) (*api.UpdateResponse, error)
	insertObject(x, y float64) (int, error)
	removeObject(id int) error
	insertNetworkObject(vertex int) (int, error)
	removeNetworkObject(vertex int) error
	// subscribe watches the sessions on the push stream, invoking onEvent
	// for every delta until the returned stop function runs.
	subscribe(sids []uint64, onEvent func(api.SessionEvent)) (stop func(), err error)
	stats() (*api.StatsResponse, error)
	close()
}

// pushTracker correlates object inserts with the pushed deltas they
// cause and records the insert-to-push latency of the first delivery.
// Events can outrun the insert response (the push races the HTTP reply),
// so arrivals for not-yet-registered ids park in early until the insert
// returns with the id.
type pushTracker struct {
	mu       sync.Mutex
	pending  map[int]time.Time // object id -> insert issue time
	early    map[int]time.Time // event arrival time for unknown ids
	hist     metrics.Histogram
	events   uint64 // data-cause events observed
	unpushed uint64 // inserts gone (removed or run over) without any push
}

func newPushTracker() *pushTracker {
	return &pushTracker{pending: make(map[int]time.Time), early: make(map[int]time.Time)}
}

// onEvent is the subscriber callback (any goroutine).
func (p *pushTracker) onEvent(ev api.SessionEvent) {
	if ev.Cause != "data" {
		return
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events++
	for _, id := range ev.Added {
		if t0, ok := p.pending[id]; ok {
			p.hist.Record(now.Sub(t0))
			delete(p.pending, id) // first push wins
		} else if _, ok := p.early[id]; !ok {
			p.early[id] = now
			if len(p.early) > 4096 { // deletes and foreign inserts accrue here; stay bounded
				clear(p.early)
			}
		}
	}
}

// registerInsert records an insert issued at t0 that produced object id.
func (p *pushTracker) registerInsert(id int, t0 time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t1, ok := p.early[id]; ok {
		p.hist.Record(t1.Sub(t0))
		delete(p.early, id)
		return
	}
	p.pending[id] = t0
}

// forget drops an object the churn loop removed again, so pending stays
// bounded by the live churn window; one still pending was never pushed
// (it entered no watched session's kNN before dying).
func (p *pushTracker) forget(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pending[id]; ok {
		p.unpushed++
		delete(p.pending, id)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr      = flag.String("addr", "", "insqd base URL (e.g. http://localhost:8080); empty runs an in-process engine")
		sessions  = flag.Int("sessions", 2000, "concurrent query sessions")
		k         = flag.Int("k", 5, "nearest neighbors per session")
		rho       = flag.Float64("rho", 1.6, "prefetch ratio")
		duration  = flag.Duration("duration", 5*time.Second, "load duration")
		batch     = flag.Int("batch", 64, "location updates per request")
		workers   = flag.Int("workers", 8, "concurrent client workers")
		stepLen   = flag.Float64("step", 5, "client movement per update")
		churn     = flag.Float64("churn", 0, "data updates per second (alternating insert/delete), 0 = off")
		network   = flag.Bool("network", false, "drive road-network sessions instead of plane sessions (server must run with a matching -network-grid)")
		netGrid   = flag.Int("network-grid", 64, "network mode: GxG street grid (must match the server)")
		netSites  = flag.Int("network-sites", 1000, "network mode, in-process: initial network data objects")
		subCount  = flag.Int("subscribe", 0, "watch the first N sessions on the push stream and measure insert-to-push latency (0 = off)")
		space     = flag.Float64("space", 10000, "side length of the data space (must match the server)")
		seed      = flag.Int64("seed", 42, "trajectory seed")
		objects   = flag.Int("objects", 50000, "in-process mode: synthetic data objects")
		shards    = flag.Int("shards", 8, "in-process mode: engine shards")
		repErrs   = flag.Bool("report-errors", false, "HTTP mode: print per-endpoint error statuses, 503 retries and transport failures after the run")
		ingest    = flag.Bool("ingest", false, "HTTP mode: send location updates over the binary streaming ingest protocol (POST /v1/ingest) instead of JSON requests; churn stays on the JSON endpoints")
		ingestTCP = flag.String("ingest-tcp", "", "with -ingest: dial this raw TCP ingest address (insqd -ingest-addr) instead of streaming over HTTP")
	)
	flag.Parse()
	if *sessions < 1 || *batch < 1 || *workers < 1 {
		log.Fatal("sessions, batch and workers must be >= 1")
	}

	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(*space, *space))
	// Network mode rebuilds the server's synthetic road network from the
	// same knobs (grid, space, seed), so generated trajectories and site
	// churn address vertices the server actually has.
	var roadNet *insq.RoadNetwork
	var roadSites []int
	if *network {
		g, err := workload.Network(*netGrid, bounds, *seed)
		if err != nil {
			log.Fatal(err)
		}
		roadNet = g
		roadSites, err = workload.NetworkSites(g, *netSites, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("road network: %d vertices, %d sites", g.NumVertices(), len(roadSites))
	}
	var tgt target
	var ht *httpTarget // non-nil in HTTP mode, for the error-table report
	if *addr != "" {
		ht = newHTTPTarget(*addr, *workers)
		tgt = ht
		if *ingest || *ingestTCP != "" {
			it, err := newIngestTarget(ht, *workers, *ingestTCP)
			if err != nil {
				log.Fatalf("ingest dial: %v", err)
			}
			tgt = it
			if *ingestTCP != "" {
				log.Printf("target: %s, updates via binary ingest on tcp %s (%d streams)", *addr, *ingestTCP, *workers)
			} else {
				log.Printf("target: %s, updates via binary ingest over HTTP (%d streams)", *addr, *workers)
			}
		} else {
			log.Printf("target: %s", *addr)
		}
	} else {
		log.Printf("target: in-process engine (%d objects, %d shards)", *objects, *shards)
		e, err := insq.NewEngine(insq.EngineConfig{
			Shards:       *shards,
			Bounds:       bounds,
			Objects:      insq.UniformPoints(*objects, bounds, *seed),
			Network:      roadNet,
			NetworkSites: roadSites,
		})
		if err != nil {
			log.Fatal(err)
		}
		tgt = inprocTarget{e}
	}
	defer tgt.close()

	// One session per synthetic client, partitioned over the workers.
	log.Printf("creating %d sessions (k=%d, rho=%g)...", *sessions, *k, *rho)
	sids := make([]uint64, *sessions)
	if err := parallelFor(*workers, *sessions, func(i int) error {
		sid, err := tgt.createSession(*k, *rho, *network)
		sids[i] = sid
		return err
	}); err != nil {
		log.Fatal(err)
	}

	// Precomputed cyclic trajectories keep the hot loop allocation-light:
	// random-waypoint walks in the plane, random-walk routes sampled at
	// -step spacing on the road network.
	const trajSteps = 256
	var trajs [][]insq.Point
	var netTrajs [][]insq.NetworkPosition
	if *network {
		netTrajs = make([][]insq.NetworkPosition, *sessions)
		rng := rand.New(rand.NewSource(*seed ^ 0x70ad))
		for i := range netTrajs {
			route, err := insq.RandomWalkRoute(roadNet, rng.Intn(roadNet.NumVertices()),
				float64(trajSteps)**stepLen, *seed+int64(i))
			if err != nil {
				log.Fatal(err)
			}
			steps := make([]insq.NetworkPosition, trajSteps)
			for j := range steps {
				steps[j] = route.PositionAt(math.Mod(float64(j)**stepLen, route.Length()))
			}
			netTrajs[i] = steps
		}
	} else {
		trajs = make([][]insq.Point, *sessions)
		for i := range trajs {
			trajs[i] = insq.RandomWaypoint(bounds, trajSteps, *stepLen, *seed+int64(i))
		}
	}

	// Push subscription: watch the first -subscribe sessions and track
	// insert-to-push latency through the churn loop below.
	var tracker *pushTracker
	stopSub := func() {}
	if *subCount > 0 {
		n := min(*subCount, *sessions)
		tracker = newPushTracker()
		stop, err := tgt.subscribe(sids[:n], tracker.onEvent)
		if err != nil {
			log.Fatalf("subscribe: %v", err)
		}
		stopSub = stop
		log.Printf("subscribed to %d sessions on the push stream", n)
		if *churn == 0 {
			log.Print("warning: -subscribe without -churn measures nothing (no data updates to push)")
		}
	}

	stopChurn := make(chan struct{})
	churnCount := 0
	var churnHist metrics.Histogram
	var churnWG sync.WaitGroup
	if *churn > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			if *network {
				churnCount = runNetworkChurn(tgt, *churn, roadNet, roadSites, *seed, stopChurn, &churnHist, tracker)
			} else {
				churnCount = runChurn(tgt, *churn, bounds, *seed, stopChurn, &churnHist, tracker)
			}
		}()
	}

	log.Printf("driving for %v (%d workers, batch %d)...", *duration, *workers, *batch)
	type workerResult struct {
		updates, batches, errors int
		hist                     metrics.Histogram
	}
	results := make([]workerResult, *workers)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			var mine []int // session indices owned by this worker
			for i := w; i < *sessions; i += *workers {
				mine = append(mine, i)
			}
			if len(mine) == 0 { // more workers than sessions
				return
			}
			entries := make([]api.UpdateEntry, 0, *batch)
			netEntries := make([]api.NetworkUpdateEntry, 0, *batch)
			for step := 0; time.Now().Before(deadline); step++ {
				for lo := 0; lo < len(mine); lo += *batch {
					hi := min(lo+*batch, len(mine))
					var resp *api.UpdateResponse
					var err error
					t0 := time.Now()
					if *network {
						netEntries = netEntries[:0]
						for _, i := range mine[lo:hi] {
							p := netTrajs[i][step%trajSteps]
							netEntries = append(netEntries, api.NetworkUpdateEntry{Session: sids[i], U: p.U, V: p.V, T: p.T})
						}
						resp, err = tgt.networkUpdate(netEntries)
					} else {
						entries = entries[:0]
						for _, i := range mine[lo:hi] {
							p := trajs[i][step%trajSteps]
							entries = append(entries, api.UpdateEntry{Session: sids[i], X: p.X, Y: p.Y})
						}
						resp, err = tgt.update(entries)
					}
					res.batches++
					if err != nil {
						res.errors++
						continue
					}
					// Successful round-trips only: failed requests (up to
					// the client timeout) would skew the RTT quantiles.
					res.hist.Record(time.Since(t0))
					for _, r := range resp.Results {
						if r.Error != "" {
							res.errors++
						} else {
							res.updates++
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopChurn)
	churnWG.Wait()
	if tracker != nil {
		// Let in-flight pushes land before reading the histograms.
		time.Sleep(250 * time.Millisecond)
	}
	stopSub()

	var total workerResult
	for i := range results {
		total.updates += results[i].updates
		total.batches += results[i].batches
		total.errors += results[i].errors
		total.hist.Merge(&results[i].hist)
	}

	fmt.Printf("\n%-22s %v\n", "elapsed", elapsed.Round(time.Millisecond))
	fmt.Printf("%-22s %d\n", "sessions", *sessions)
	fmt.Printf("%-22s %d\n", "updates ok", total.updates)
	fmt.Printf("%-22s %d\n", "update errors", total.errors)
	fmt.Printf("%-22s %d\n", "batch requests", total.batches)
	fmt.Printf("%-22s %d\n", "data updates", churnCount)
	fmt.Printf("%-22s %.0f\n", "updates/sec", float64(total.updates)/elapsed.Seconds())
	// Per-endpoint client latency: update batches and object mutations hit
	// different server paths (shard fan-out vs. copy-on-write publish), so
	// one merged histogram would hide whichever is slower.
	fmt.Printf("client update RTT      %v\n", total.hist.Summary())
	if churnHist.Count() > 0 {
		fmt.Printf("client mutation RTT    %v\n", churnHist.Summary())
	}
	if tracker != nil {
		tracker.mu.Lock()
		push := tracker.hist.Summary()
		events, unmatched := tracker.events, tracker.unpushed+uint64(len(tracker.pending))
		tracker.mu.Unlock()
		fmt.Printf("push events            %d\n", events)
		fmt.Printf("insert-to-push         %v (%d inserts never pushed: outside every watched kNN)\n", push, unmatched)
	}
	if st, err := tgt.stats(); err != nil {
		log.Printf("stats: %v", err)
	} else {
		if st.Version != "" {
			fmt.Printf("server version         %s (%s, rev %s, up %.0fs)\n",
				st.Version, st.GoVersion, st.Revision, st.UptimeSec)
		}
		fmt.Printf("server updates/sec     %.0f\n", st.UpdatesPerSec)
		fmt.Printf("server epoch           %d (%d live index snapshots)\n", st.Epoch, st.Snapshots)
		fmt.Printf("server update latency  n=%d mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus\n",
			st.Latency.Count, st.Latency.MeanUS, st.Latency.P50US, st.Latency.P95US, st.Latency.P99US, st.Latency.MaxUS)
		fmt.Printf("server counters        %v\n", st.Counters)
		fmt.Printf("server recompute rate  %.2f%% of updates\n",
			100*float64(st.Counters.Recomputations)/float64(max(st.Counters.Timestamps, 1)))
		if s := st.Stream; s.Published > 0 || s.Subscribers > 0 {
			fmt.Printf("server stream          published=%d delivered=%d coalesced=%d dropped=%d\n",
				s.Published, s.Delivered, s.Coalesced, s.Dropped)
		}
		if ig := st.Ingest; ig != nil {
			fmt.Printf("server ingest          conns=%d frames=%d batches=%d coalesce=%.2fx bytes_in=%d bytes_out=%d\n",
				ig.Connections, ig.FramesTotal, ig.Batches, ig.CoalesceFactor, ig.BytesIn, ig.BytesOut)
		}
	}
	if *repErrs {
		if ht != nil {
			if tbl := ht.errs.report(); tbl != "" {
				fmt.Printf("http errors by endpoint\n%s", tbl)
			} else {
				fmt.Println("http errors by endpoint: none")
			}
		} else {
			log.Print("-report-errors: in-process target, no HTTP layer to report on")
		}
	}
	// Release the sessions (after the stats read — server counters cover
	// live sessions) so repeated runs against one long-running insqd don't
	// accumulate dead sessions there. Keep going past individual failures:
	// one transient error must not leak a worker's remaining sessions.
	var closeFailed atomic.Int64
	parallelFor(*workers, *sessions, func(i int) error {
		if err := tgt.closeSession(sids[i]); err != nil {
			closeFailed.Add(1)
		}
		return nil
	})
	if n := closeFailed.Load(); n > 0 {
		log.Printf("failed to close %d sessions", n)
	}

	if total.errors > 0 {
		log.Fatalf("%d update errors", total.errors)
	}
}

// parallelFor runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallelFor(workers, n int, fn func(i int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runChurn applies paced data updates until stop closes: inserts random
// objects and removes them again once enough have accumulated, so the
// object count stays near its initial value. Every mutation's round-trip
// is recorded in hist (the object-mutation side of the per-endpoint
// latency split); inserts are registered with the push tracker when one
// is attached.
func runChurn(tgt target, perSec float64, bounds insq.Rect, seed int64, stop <-chan struct{}, hist *metrics.Histogram, tracker *pushTracker) int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	interval := time.Duration(float64(time.Second) / perSec)
	if interval <= 0 { // perSec > 1e9 truncates to zero, which NewTicker rejects
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var inserted []int
	n := 0 // applied updates only; failures surface as log lines
	remove := func(id int) {
		t0 := time.Now()
		if err := tgt.removeObject(id); err != nil {
			log.Printf("churn remove %d: %v", id, err)
			return
		}
		hist.Record(time.Since(t0))
		if tracker != nil {
			tracker.forget(id)
		}
		n++
	}
	for {
		select {
		case <-stop:
			// Drain pending inserts so repeated runs against one server
			// keep the object count at its initial value.
			for _, id := range inserted {
				remove(id)
			}
			return n
		case <-tick.C:
		}
		if len(inserted) > 32 {
			id := inserted[0]
			inserted = inserted[1:]
			remove(id)
		} else {
			x := bounds.Min.X + rng.Float64()*(bounds.Max.X-bounds.Min.X)
			y := bounds.Min.Y + rng.Float64()*(bounds.Max.Y-bounds.Min.Y)
			t0 := time.Now()
			id, err := tgt.insertObject(x, y)
			if err != nil {
				log.Printf("churn insert: %v", err)
			} else {
				hist.Record(time.Since(t0))
				if tracker != nil {
					tracker.registerInsert(id, t0)
				}
				inserted = append(inserted, id)
				n++
			}
		}
	}
}

// runNetworkChurn is runChurn for the road-network side: it inserts data
// objects at random free vertices (outside the initial site set) and
// removes them again once enough have accumulated, keeping the site count
// near its initial value.
func runNetworkChurn(tgt target, perSec float64, g *insq.RoadNetwork, initial []int, seed int64, stop <-chan struct{}, hist *metrics.Histogram, tracker *pushTracker) int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	interval := time.Duration(float64(time.Second) / perSec)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	taken := make(map[int]bool, len(initial))
	for _, v := range initial {
		taken[v] = true
	}
	var inserted []int
	n := 0
	remove := func(v int) {
		t0 := time.Now()
		if err := tgt.removeNetworkObject(v); err != nil {
			log.Printf("churn remove site %d: %v", v, err)
			return
		}
		hist.Record(time.Since(t0))
		delete(taken, v)
		if tracker != nil {
			tracker.forget(v)
		}
		n++
	}
	for {
		select {
		case <-stop:
			for _, v := range inserted {
				remove(v)
			}
			return n
		case <-tick.C:
		}
		if len(inserted) > 32 {
			v := inserted[0]
			inserted = inserted[1:]
			remove(v)
		} else {
			v := rng.Intn(g.NumVertices())
			for taken[v] {
				v = rng.Intn(g.NumVertices())
			}
			t0 := time.Now()
			id, err := tgt.insertNetworkObject(v)
			if err != nil {
				log.Printf("churn insert site %d: %v", v, err)
			} else {
				hist.Record(time.Since(t0))
				taken[v] = true
				if tracker != nil {
					tracker.registerInsert(id, t0)
				}
				inserted = append(inserted, v)
				n++
			}
		}
	}
}

// inprocTarget serves the load loop straight from an engine, bypassing
// HTTP; it measures the engine floor.
type inprocTarget struct {
	e *insq.Engine
}

func (t inprocTarget) createSession(k int, rho float64, network bool) (uint64, error) {
	if network {
		sid, err := t.e.CreateNetworkSession(k, rho)
		return uint64(sid), err
	}
	sid, err := t.e.CreateSession(k, rho)
	return uint64(sid), err
}

func (t inprocTarget) closeSession(sid uint64) error {
	return t.e.CloseSession(insq.SessionID(sid))
}

func (t inprocTarget) update(entries []api.UpdateEntry) (*api.UpdateResponse, error) {
	results, err := t.e.UpdateBatchCtx(context.Background(), api.NewLocationUpdates(entries))
	if err != nil {
		return nil, err
	}
	resp := api.NewUpdateResponse(results)
	return &resp, nil
}

func (t inprocTarget) networkUpdate(entries []api.NetworkUpdateEntry) (*api.UpdateResponse, error) {
	results, err := t.e.UpdateNetworkBatchCtx(context.Background(), api.NewNetworkLocationUpdates(entries))
	if err != nil {
		return nil, err
	}
	resp := api.NewUpdateResponse(results)
	return &resp, nil
}

// apply runs one mutation as a one-entry batch and returns its id.
func (t inprocTarget) apply(m insq.Mutation) (int, error) {
	ids, err := t.e.ApplyMutations(context.Background(), []insq.Mutation{m})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}

func (t inprocTarget) insertObject(x, y float64) (int, error) {
	return t.apply(insq.Mutation{Insert: true, P: insq.Pt(x, y)})
}

func (t inprocTarget) removeObject(id int) error {
	_, err := t.apply(insq.Mutation{ID: id})
	return err
}

func (t inprocTarget) insertNetworkObject(vertex int) (int, error) {
	return t.apply(insq.Mutation{Network: true, Insert: true, ID: vertex})
}

func (t inprocTarget) removeNetworkObject(vertex int) error {
	_, err := t.apply(insq.Mutation{Network: true, ID: vertex})
	return err
}

// subscribe consumes the engine's broker directly — the push-latency
// floor without the SSE/TCP stack.
func (t inprocTarget) subscribe(sids []uint64, onEvent func(api.SessionEvent)) (func(), error) {
	sub := t.e.Stream().Subscribe(0, sids...)
	if sub == nil {
		return nil, errors.New("stream broker closed")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-sub.Done():
				return
			case <-sub.Wake():
				for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
					onEvent(api.NewSessionEvent(ev))
				}
			}
		}
	}()
	return func() {
		close(stop)
		sub.Close()
		<-done
	}, nil
}

func (t inprocTarget) stats() (*api.StatsResponse, error) {
	st, err := t.e.Stats()
	if err != nil {
		return nil, err
	}
	resp := api.NewStatsResponse(st)
	resp.Version, resp.GoVersion, resp.Revision = obs.Build()
	return &resp, nil
}

func (t inprocTarget) close() { t.e.Close() }

// errStats tallies per-endpoint HTTP failures and transient-status
// retries so recovery-window unavailability (503 while insqd replays its
// WAL or runs degraded without durability) and admission-control shed
// (429 at the shard queue high watermark) are visible in the
// -report-errors table instead of vanishing into generic error counts.
type errStats struct {
	mu      sync.Mutex
	counts  map[string]map[int]uint64 // endpoint -> status -> responses
	retries map[string]uint64         // endpoint -> 503 retries taken
	netErrs map[string]uint64         // endpoint -> transport errors
}

func newErrStats() *errStats {
	return &errStats{
		counts:  make(map[string]map[int]uint64),
		retries: make(map[string]uint64),
		netErrs: make(map[string]uint64),
	}
}

func (s *errStats) record(endpoint string, status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.counts[endpoint]
	if m == nil {
		m = make(map[int]uint64)
		s.counts[endpoint] = m
	}
	m[status]++
}

// recordCode folds a binary-ingest frame status into the same table as
// the HTTP statuses, so shed/degraded aggregates cover both protocols.
func (s *errStats) recordCode(endpoint string, code api.ErrorCode) {
	status := http.StatusInternalServerError
	switch code {
	case api.CodeOverloaded:
		status = http.StatusTooManyRequests
	case api.CodeDegraded, api.CodeUnavailable:
		status = http.StatusServiceUnavailable
	}
	s.record(endpoint, status)
}

func (s *errStats) retry(endpoint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retries[endpoint]++
}

func (s *errStats) netErr(endpoint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.netErrs[endpoint]++
}

// report renders one line per endpoint with its error statuses, retries
// and transport failures; empty when every request succeeded first try.
func (s *errStats) report() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	endpoints := make(map[string]bool)
	for ep := range s.counts {
		endpoints[ep] = true
	}
	for ep := range s.retries {
		endpoints[ep] = true
	}
	for ep := range s.netErrs {
		endpoints[ep] = true
	}
	ordered := make([]string, 0, len(endpoints))
	for ep := range endpoints {
		ordered = append(ordered, ep)
	}
	sort.Strings(ordered)
	var b strings.Builder
	for _, ep := range ordered {
		fmt.Fprintf(&b, "  %-28s", ep)
		statuses := make([]int, 0, len(s.counts[ep]))
		for code := range s.counts[ep] {
			statuses = append(statuses, code)
		}
		sort.Ints(statuses)
		for _, code := range statuses {
			fmt.Fprintf(&b, " %dx%d", s.counts[ep][code], code)
		}
		if n := s.retries[ep]; n > 0 {
			fmt.Fprintf(&b, " retries=%d", n)
		}
		if n := s.netErrs[ep]; n > 0 {
			fmt.Fprintf(&b, " transport=%d", n)
		}
		b.WriteByte('\n')
	}
	// Aggregate rows for the two transient backpressure signals, so a run
	// that rode through shed or degraded windows shows the totals at a
	// glance without summing per-endpoint counts.
	var shed, degraded uint64
	for _, m := range s.counts {
		shed += m[http.StatusTooManyRequests]
		degraded += m[http.StatusServiceUnavailable]
	}
	if shed > 0 {
		fmt.Fprintf(&b, "  %-28s %d responses\n", "shed (429)", shed)
	}
	if degraded > 0 {
		fmt.Fprintf(&b, "  %-28s %d responses\n", "degraded/unavailable (503)", degraded)
	}
	return b.String()
}

// httpTarget talks to a running insqd through the shared client
// package, with the per-endpoint error table wired into its hooks.
type httpTarget struct {
	c    *insqclient.Client
	errs *errStats
}

func newHTTPTarget(base string, workers int) *httpTarget {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = workers + 2
	errs := newErrStats()
	c := insqclient.New(base, insqclient.Options{
		HTTPClient: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		OnStatus:   errs.record,
		OnRetry:    errs.retry,
		OnNetErr:   errs.netErr,
	})
	return &httpTarget{c: c, errs: errs}
}

func (t *httpTarget) createSession(k int, rho float64, network bool) (uint64, error) {
	return t.c.CreateSession(k, rho, network)
}

func (t *httpTarget) closeSession(sid uint64) error { return t.c.CloseSession(sid) }

func (t *httpTarget) update(entries []api.UpdateEntry) (*api.UpdateResponse, error) {
	return t.c.Update(entries)
}

func (t *httpTarget) networkUpdate(entries []api.NetworkUpdateEntry) (*api.UpdateResponse, error) {
	return t.c.NetworkUpdate(entries)
}

func (t *httpTarget) insertObject(x, y float64) (int, error) { return t.c.AddObject(x, y) }

func (t *httpTarget) removeObject(id int) error { return t.c.RemoveObject(id) }

func (t *httpTarget) insertNetworkObject(vertex int) (int, error) {
	return t.c.AddNetworkObject(vertex)
}

func (t *httpTarget) removeNetworkObject(vertex int) error {
	return t.c.RemoveNetworkObject(vertex)
}

func (t *httpTarget) subscribe(sids []uint64, onEvent func(api.SessionEvent)) (func(), error) {
	return t.c.Subscribe(sids, onEvent)
}

func (t *httpTarget) stats() (*api.StatsResponse, error) { return t.c.Stats() }

func (t *httpTarget) close() {}

// ingestTarget routes location updates over binary streaming ingest
// connections (one per worker, checked out of a pool) while mutations,
// sessions and stats stay on the JSON endpoints. Each update batch is a
// synchronous Call — the per-request shape with the HTTP/JSON overhead
// replaced by one frame and one ack.
type ingestTarget struct {
	*httpTarget
	streams chan *insqclient.Ingest
}

func newIngestTarget(ht *httpTarget, workers int, tcpAddr string) (*ingestTarget, error) {
	t := &ingestTarget{httpTarget: ht, streams: make(chan *insqclient.Ingest, workers)}
	for i := 0; i < workers; i++ {
		var ing *insqclient.Ingest
		var err error
		if tcpAddr != "" {
			ing, err = insqclient.DialIngestTCP(context.Background(), tcpAddr, 8)
		} else {
			ing, err = ht.c.DialIngest(context.Background(), 8)
		}
		if err != nil {
			t.close()
			return nil, err
		}
		t.streams <- ing
	}
	return t, nil
}

// callIngest runs one batch through a pooled stream and adapts the ack
// to the JSON response shape the load loop consumes.
func (t *ingestTarget) callIngest(endpoint string, b api.IngestBatch) (*api.UpdateResponse, error) {
	b.WantResults = true
	ing := <-t.streams
	ack, err := ing.Call(b)
	t.streams <- ing
	if err != nil {
		t.errs.netErr(endpoint)
		return nil, err
	}
	if ack.Code != api.CodeOK {
		t.errs.recordCode(endpoint, ack.Code)
		return nil, fmt.Errorf("%s: %s: %s", endpoint, ack.Code, ack.Message)
	}
	resp := &api.UpdateResponse{Results: make([]api.UpdateResultEntry, len(ack.Results))}
	for i, r := range ack.Results {
		entry := api.UpdateResultEntry{Session: r.Session, KNN: r.KNN}
		if r.Code != api.CodeOK {
			entry.Code = r.Code
			entry.Error = string(r.Code)
		}
		resp.Results[i] = entry
	}
	return resp, nil
}

func (t *ingestTarget) update(entries []api.UpdateEntry) (*api.UpdateResponse, error) {
	return t.callIngest("INGEST update", api.IngestBatch{Updates: entries})
}

func (t *ingestTarget) networkUpdate(entries []api.NetworkUpdateEntry) (*api.UpdateResponse, error) {
	return t.callIngest("INGEST network/update", api.IngestBatch{NetworkUpdates: entries})
}

func (t *ingestTarget) close() {
	for {
		select {
		case ing := <-t.streams:
			ing.Close()
		default:
			return
		}
	}
}
