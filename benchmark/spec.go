package main

import (
	"fmt"
	"time"
)

// Engine, server and WAL settings are insqd's shipped defaults; only the
// values insqd sets by flag are spelled out here (the rest — mailbox
// depth, fsync=interval cadence, CheckpointEvery, segment size — stay the
// packages' own zero-value defaults, exactly as insqd leaves them).
const (
	shards         = 8
	fanout         = 16 // insq.DefaultFanout
	space          = 10000.0
	rho            = 1.6
	coalesceWindow = time.Millisecond
	requestTimeout = 5 * time.Second
	statsTTL       = 500 * time.Millisecond
)

// sessionKs is the k mix: session i asks for sessionKs[i%4] neighbors.
var sessionKs = []int{1, 5, 10, 20}

// Step lengths per location update, in data-space units. Half the sessions
// crawl (validation answers nearly every update), half stride (the kNN set
// turns over and recomputations dominate), so both INS regimes coexist in
// every workload.
const (
	slowStep = 2.0
	fastStep = 16.0
)

// spec sizes one workload. See workloads for why each exists.
type spec struct {
	Name string
	Why  string

	Network bool // road-network sessions on a street grid instead of the plane
	Serve   bool // drive through server.New + raw-TCP ingest + SSE

	Objects  int // plane data objects, or network sites
	Grid     int // street grid side (Network only): Grid x Grid vertices
	Sessions int
	Watched  int // sessions with a push subscriber; == Sessions watches all
	Readers  int // closed-loop update callers (Serve: one pipelined sender)
	Batch    int // location updates per call (engine batch or ingest frame)
	Window   int // Serve: frames in flight on the ingest connection

	// The open-loop mutator fires MutRate calls per second. Alternate
	// workloads send one mutation per call, inserts and removals taking
	// turns; otherwise every call carries MutIns inserts then MutRem
	// removals as one ApplyMutations batch.
	MutRate   float64
	Alternate bool
	MutIns    int
	MutRem    int

	SeedProbes int // probe objects inserted during set-up so removals never run dry
	TrajLen    int // pre-generated positions per session, replayed ping-pong
	TailMuts   int // mutations applied between the final checkpoint and the crash
}

// workloads are the benchmark's four traffic mixes. Each stresses a
// different group of layers, so a change to one layer has a workload that
// exercises it and at least one where the prediction is "no change".
var workloads = []spec{
	{
		Name:    "plane_engine",
		Why:     "in-process engine on 100k plane objects: engine fan-out, core INS and vortree/rtree/voronoi do the work; wire, pump and write path idle",
		Objects: 100000, Sessions: 4096, Watched: 64, Readers: 2, Batch: 64,
		MutRate: 90, Alternate: true, MutIns: 1, MutRem: 1,
	},
	{
		Name:    "network_engine",
		Why:     "same driver on a 448x448 street grid (200,704 vertices, 30k sites): netvor/roadnet search dominates, so plane-index changes must not move it",
		Network: true, Grid: 448, Objects: 30000, Sessions: 1024, Watched: 64, Readers: 2, Batch: 64,
		MutRate: 90, Alternate: true, MutIns: 1, MutRem: 1,
	},
	{
		Name:  "serve_pipeline",
		Why:   "everything on: TCP ingest (16-frame window, 4-entry frames) + 200 mutation frames/s + SSE push on 100k objects; client, codec, pump and push carry the cost",
		Serve: true, Objects: 100000, Sessions: 2048, Watched: 256, Readers: 1, Batch: 4, Window: 16,
		MutRate: 200, Alternate: true, MutIns: 1, MutRem: 1,
	},
	{
		Name:    "churn_recover",
		Why:     "writes beside reads: 100 batches/s of 8 inserts + 8 removes on 65,536 objects with all 1,024 sessions watched; index.Store, wal and stream under load",
		Objects: 65536, Sessions: 1024, Watched: 1024, Readers: 1, Batch: 64,
		MutRate: 100, MutIns: 8, MutRem: 8,
	},
}

func init() {
	for i := range workloads {
		w := &workloads[i]
		w.SeedProbes = 256
		w.TrajLen = 256
		w.TailMuts = 3000
	}
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// smoke shrinks a workload to a few hundred milliseconds of work so the
// unit tests can run every code path of the harness; the numbers it
// produces mean nothing.
func (s spec) smoke() spec {
	s.Objects = max(s.Objects/50, 600)
	if s.Network {
		s.Grid = 24
		s.Objects = 80
	}
	all := s.Watched == s.Sessions
	s.Sessions = max(s.Sessions/16, 64)
	if all {
		s.Watched = s.Sessions
	} else {
		s.Watched = min(s.Watched, s.Sessions/4)
	}
	s.Batch = min(s.Batch, 16)
	s.TrajLen = 32
	s.TailMuts = 96
	s.SeedProbes = 4
	return s
}
