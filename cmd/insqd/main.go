// Command insqd serves MkNN queries over HTTP: an online INS serving
// engine (internal/engine) behind a JSON API. It boots a uniform synthetic
// dataset, then maintains live query sessions against it — create a
// session, stream batched location updates, mutate the object set, read
// aggregated serving stats:
//
//	insqd -addr :8080 -objects 100000 -shards 8
//
//	curl -X POST localhost:8080/v1/sessions -d '{"k":5,"rho":1.6}'
//	curl -X POST localhost:8080/v1/update -d '{"updates":[{"session":1,"x":512,"y":316}]}'
//	curl -X POST localhost:8080/v1/objects -d '{"x":100,"y":200}'
//	curl -X DELETE localhost:8080/v1/objects/42
//	curl localhost:8080/v1/stats
//	curl -N localhost:8080/v1/sessions/1/events     # SSE push stream
//	curl -N 'localhost:8080/v1/events?sessions=1,2' # multi-session variant
//
// The /events endpoints stream continuous-query results: after an object
// insert/delete invalidates a subscribed session, the engine recomputes
// it eagerly and pushes the kNN delta — the client never polls.
//
// With -network-grid G the server additionally builds a G×G synthetic
// street grid and serves road-network sessions against it, with online
// site mutations — full parity with the plane side:
//
//	insqd -network-grid 64 -network-sites 500
//
//	curl -X POST localhost:8080/v1/sessions -d '{"k":5,"network":true}'
//	curl -X POST localhost:8080/v1/network/update -d '{"updates":[{"session":1,"u":17,"v":18,"t":0.5}]}'
//	curl -X POST localhost:8080/v1/network/objects -d '{"vertex":17}'
//	curl -X DELETE localhost:8080/v1/network/objects/17
//
// High-rate feeds should use the binary streaming ingest path instead of
// JSON requests: POST /v1/ingest upgrades the connection to a
// length-prefixed CRC32C frame stream (see internal/api), and
// -ingest-addr additionally opens a raw TCP listener speaking the same
// protocol without the HTTP layer. Frames arriving within
// -coalesce-window merge into single engine batches. internal/client
// provides the Go client for both paths.
//
// See internal/api for the wire types; benchmark/ drives the TCP ingest
// path and the SSE push under load. SIGINT/SIGTERM shut the server down
// gracefully: the stream broker closes first so every SSE subscriber
// receives a final "bye" event, in-flight requests drain, then the engine
// stops and prints its final stats.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	insq "repro"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insqd: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		objects     = flag.Int("objects", 100000, "synthetic plane data objects")
		space       = flag.Float64("space", 10000, "side length of the square data space")
		shards      = flag.Int("shards", 8, "engine shards (parallel session workers)")
		seed        = flag.Int64("seed", 42, "dataset seed")
		netGrid     = flag.Int("network-grid", 0, "serve a road-network side too: a GxG street grid (0 = plane only; a client addressing vertices must build the same grid)")
		netSites    = flag.Int("network-sites", 1000, "initial network data objects (with -network-grid)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (see EXPERIMENTS.md for the profiling recipe)")
		dataDir     = flag.String("data-dir", "", "durability directory: write-ahead log + checkpoints; on boot the newest checkpoint is loaded and the WAL tail replayed (empty = no durability, state dies with the process)")
		fsync       = flag.String("fsync", "interval", "WAL fsync policy with -data-dir: always (group commit, no acknowledged batch lost), interval (bounded loss window), off")
		ckptEach    = flag.Uint64("checkpoint-every", wal.DefaultCheckpointEvery, "checkpoint the index snapshot every N data-update epochs (with -data-dir)")
		metricsOn   = flag.Bool("metrics", true, "pipeline observability: Prometheus /metrics, per-stage latency histograms, per-request trace IDs, slow-op log")
		accessLogOn = flag.Bool("access-log", false, "structured access log on stderr: method, path, status, duration, trace ID")
		slowBatch   = flag.Duration("slow-batch", 50*time.Millisecond, "slow-op log threshold for one shard batch (0 = off)")
		slowFsync   = flag.Duration("slow-fsync", 20*time.Millisecond, "slow-op log threshold for one WAL fsync (0 = off)")
		slowPublish = flag.Duration("slow-publish", 20*time.Millisecond, "slow-op log threshold for one epoch publication (0 = off)")
		reqTimeout  = flag.Duration("request-timeout", 5*time.Second, "per-request deadline for update/object mutations; expired batches are dropped at the shard (0 = no deadline)")
		faultSpec   = flag.String("fault", "", "chaos testing: arm failpoints, e.g. 'wal.fsync.err=err,count:10;store.publish.delay=delay:5ms' (also via INSQ_FAULT; empty = all disarmed)")
		ingestAddr  = flag.String("ingest-addr", "", "additionally serve the binary ingest protocol on this raw TCP address, bypassing HTTP (empty = HTTP /v1/ingest only)")
		coalesce    = flag.Duration("coalesce-window", time.Millisecond, "merge ingest frames arriving within this window into one engine batch (0 = apply frames individually)")
	)
	flag.Parse()
	if *objects < 1 || *shards < 1 || *space <= 0 {
		log.Fatal("objects and shards must be >= 1 and space > 0")
	}
	if *faultSpec == "" {
		*faultSpec = os.Getenv("INSQ_FAULT")
	}
	if *faultSpec != "" {
		armed, err := fault.ParseAndArm(*faultSpec)
		if err != nil {
			log.Fatalf("-fault: %v (known points: %v)", err, fault.Names())
		}
		log.Printf("FAULT INJECTION ARMED (testing only): %v", armed)
	}

	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(*space, *space))
	cfg := insq.EngineConfig{
		Shards:  *shards,
		Bounds:  bounds,
		Objects: insq.UniformPoints(*objects, bounds, *seed),
	}
	if *netGrid > 0 {
		g, err := workload.Network(*netGrid, bounds, *seed)
		if err != nil {
			log.Fatal(err)
		}
		sites, err := workload.NetworkSites(g, *netSites, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Network, cfg.NetworkSites = g, sites
		log.Printf("road network: %d vertices, %d edges, %d sites", g.NumVertices(), g.NumEdges(), len(sites))
	}

	// Start listening before recovery: during WAL replay clients get a
	// clean 503 + Retry-After instead of a connection refused, and load
	// balancers can watch /healthz flip.
	if *pprofOn {
		log.Print("pprof endpoints enabled under /debug/pprof/")
	}
	// Observability wiring: one registry and slow-op log shared by every
	// layer (server decode, engine shards, store publishes, WAL appends,
	// stream pushes). -metrics=false compiles the whole pipeline to a
	// noop: pipe stays nil and every instrumentation site is one branch.
	var pipe *obs.Pipeline
	slogger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *metricsOn {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		slow := obs.NewSlowLog(slogger, obs.Thresholds{
			Batch:   *slowBatch,
			Fsync:   *slowFsync,
			Publish: *slowPublish,
		})
		pipe = obs.NewPipeline(reg, slow)
		version, goVersion, revision := obs.Build()
		log.Printf("observability: /metrics on, build %s %s %s", version, goVersion, revision)
	}
	opts := server.Options{
		Pprof:          *pprofOn,
		Obs:            pipe,
		RequestTimeout: *reqTimeout,
		CoalesceWindow: *coalesce,
	}
	if *accessLogOn {
		opts.AccessLog = slogger
	}
	hs := server.NewPending(opts)
	cfg.Obs = pipe
	srv := &http.Server{
		Addr:    *addr,
		Handler: hs.Handler(),
		// Bound slow clients so stuck connections can't pin goroutines (or
		// eat the whole shutdown budget); bodies are size-capped per
		// handler.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() {
		log.Printf("listening on %s", *addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	var ingestLn net.Listener
	if *ingestAddr != "" {
		var err error
		ingestLn, err = net.Listen("tcp", *ingestAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("binary ingest on %s (coalesce window %v)", *ingestAddr, *coalesce)
		go func() {
			if err := hs.ServeIngest(ingestLn); !errors.Is(err, net.ErrClosed) {
				log.Fatal(err)
			}
		}()
	}

	var mgr *wal.Manager
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("durability: opening %s (fsync=%s, checkpoint-every=%d)...", *dataDir, policy, *ckptEach)
		mgr, err = wal.Open(index.Config{
			Bounds:       bounds,
			Objects:      cfg.Objects,
			Network:      cfg.Network,
			NetworkSites: cfg.NetworkSites,
			Obs:          pipe,
		}, wal.Options{
			Dir:             *dataDir,
			Sync:            policy,
			CheckpointEvery: *ckptEach,
			Obs:             pipe,
			Logger:          slogger,
		})
		if err != nil {
			log.Fatal(err)
		}
		ws := mgr.Stats()
		log.Printf("recovered to epoch %d in %v (checkpoint epoch %d, %d batches replayed, %d bytes truncated)",
			ws.RecoveredEpoch, ws.Recovery.Round(time.Millisecond), ws.CheckpointEpoch, ws.ReplayedBatches, ws.TruncatedBytes)
		cfg.WAL = mgr
	}
	log.Printf("building shared index of %d objects (%d shards)...", *objects, *shards)
	start := time.Now()
	e, err := insq.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hs.SetEngine(e)
	log.Printf("engine up in %v", time.Since(start).Round(time.Millisecond))

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	<-ctx.Done()
	log.Print("shutting down...")
	// Close the push broker first: every SSE subscriber gets a final "bye"
	// event and its handler returns, so Shutdown's drain below isn't held
	// hostage by long-lived /events connections (they would otherwise
	// outlive any drain timeout by design).
	e.Stream().Close()
	if ingestLn != nil {
		ingestLn.Close()
	}
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if st, err := e.Stats(); err == nil {
		log.Printf("final: %v", st)
	}
	if mgr != nil {
		// Final checkpoint needs a live store: close the manager before the
		// engine.
		if err := mgr.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	e.Close()
	log.Print("bye")
}
