// Command bench regenerates the reproduction experiments of EXPERIMENTS.md.
// Each experiment prints one table row per (parameter, processor) pair:
//
//	bench -exp E4          # run one experiment
//	bench -exp all         # run everything (minutes)
//	bench -scale 4         # divide workload sizes by 4 for a quick pass
//
// The authoritative experiment list is the registry below — the -exp help
// string and the unknown-id error are generated from it, so the list
// cannot drift from the code. It covers the paper tables (E1–E12), the
// ablations (A1–A3) and the serving records ENGINE (online plane
// serving), STREAM (continuous-query push), NETWORK (road-network
// serving), WAL (durability overhead and crash recovery), OBS
// (observability overhead: metrics-on vs noop serving rate), CHAOS
// (fault injection: degrade/heal, shed, deadline drops, crash recovery)
// and SERVE (wire-protocol A/B: JSON-per-request vs binary streaming
// ingest against an in-process serving stack). With -benchout and a
// single record experiment the result is written as the JSON record CI
// archives and benchguard gates (BENCH_engine.json / BENCH_stream.json /
// BENCH_network.json / BENCH_wal.json / BENCH_obs.json /
// BENCH_chaos.json / BENCH_serve.json). -seed offsets every workload
// seed for seed-sensitivity reruns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
)

// runner is one experiment id: either a table experiment (fn) or a
// serving-record experiment (record) whose result can be written to
// -benchout. Exactly one of fn/record is set.
type runner struct {
	id     string
	doc    string
	fn     func(experiments.Config) ([]experiments.Row, error)
	record func(experiments.Config) (any, error)
}

// runners is the single source of truth for valid experiment ids.
var runners = []runner{
	{id: "E1", doc: "Figure 1: MIS/INS of the 12-object fixture",
		fn: func(experiments.Config) ([]experiments.Row, error) { return experiments.E1() }},
	{id: "E2", doc: "Figure 2: network INS, Theorem 1",
		fn: func(experiments.Config) ([]experiments.Row, error) { return experiments.E2() }},
	{id: "E3", doc: "Figure 4: validation/invalidations along a walk", fn: experiments.E3},
	{id: "E4", doc: "recomputations, shipped objects and us/step vs k (E4+E5)", fn: experiments.E4E5},
	{id: "E6", doc: "prefetch ratio rho sweep", fn: experiments.E6},
	{id: "E7", doc: "dataset size sweep", fn: experiments.E7},
	{id: "E8", doc: "road network comparison incl. Theorem-2 ablation (E8+E9)", fn: experiments.E8E9},
	{id: "E11", doc: "data-object update rate sweep", fn: experiments.E11},
	{id: "E12", doc: "order-k precomputation blow-up vs INS", fn: experiments.E12},
	{id: "A1", doc: "ablation: local re-rank path", fn: experiments.AblationRerank},
	{id: "A2", doc: "ablation: grid-seeded Voronoi kNN vs R-tree kNN", fn: experiments.AblationVorTree},
	{id: "A3", doc: "ablation: order-k cell construction candidates", fn: experiments.AblationOrderKConstruction},
	{id: "ENGINE", doc: "online serving benchmark (shared snapshot store)",
		record: func(cfg experiments.Config) (any, error) { return experiments.EngineBench(cfg) }},
	{id: "STREAM", doc: "continuous-query push benchmark (insert-to-push latency)",
		record: func(cfg experiments.Config) (any, error) { return experiments.StreamBench(cfg) }},
	{id: "NETWORK", doc: "road-network serving benchmark (site churn, epoch publication)",
		record: func(cfg experiments.Config) (any, error) { return experiments.NetworkBench(cfg) }},
	{id: "WAL", doc: "durability benchmark (WAL append overhead, crash recovery)",
		record: func(cfg experiments.Config) (any, error) { return experiments.DurabilityBench(cfg) }},
	{id: "OBS", doc: "observability benchmark (metrics-on vs noop serving rate, scrape cost)",
		record: func(cfg experiments.Config) (any, error) { return experiments.ObsBench(cfg) }},
	{id: "CHAOS", doc: "fault-injection experiment (degrade/heal round trips, shed, deadline drops, crash recovery)",
		record: func(cfg experiments.Config) (any, error) { return experiments.ChaosBench(cfg) }},
	{id: "SERVE", doc: "wire-protocol A/B benchmark (JSON-per-request vs binary streaming ingest)",
		record: func(cfg experiments.Config) (any, error) { return experiments.ServeBench(cfg) }},
}

// ids returns the registry's experiment ids in order.
func ids() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.id
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	exp := flag.String("exp", "all",
		"experiment id ("+strings.Join(ids(), ",")+") or 'all'")
	scale := flag.Int("scale", 1, "divide workload sizes by this factor (>=1)")
	seed := flag.Int64("seed", 0, "offset every workload seed (datasets, trajectories, churn RNGs) to probe seed sensitivity; 0 = the canonical published tables (E1/E2 fixtures are seed-independent)")
	benchout := flag.String("benchout", "", "with a single record experiment (ENGINE, STREAM, NETWORK, WAL, OBS, CHAOS, SERVE): write the result as JSON to this file (e.g. BENCH_engine.json)")
	vertices := flag.Int("vertices", 0, "NETWORK: override the road-network vertex count (street grid is ceil(sqrt(vertices)) on a side, site density held fixed); 0 = the canonical 4096-vertex grid")
	flag.Parse()
	if *scale < 1 {
		*scale = 1
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Vertices: *vertices}

	want := strings.ToUpper(*exp)
	if want != "ALL" {
		known := false
		for _, r := range runners {
			known = known || want == r.id
		}
		if !known {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q; valid ids: %s, or 'all'\n",
				*exp, strings.Join(ids(), ", "))
			os.Exit(2)
		}
	}
	// The record experiments share the -benchout path. Under 'all' the
	// flag keeps its historical meaning (the ENGINE record) rather than
	// being silently dropped.
	writeRecord := func(id string, res any) {
		if *benchout == "" {
			return
		}
		if want == "ALL" && id != "ENGINE" {
			log.Printf("note: -benchout with -exp all writes the ENGINE record only; run -exp %s -benchout <file> for the %s record", id, id)
			return
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("%s: encode: %v", id, err)
		}
		if err := os.WriteFile(*benchout, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		log.Printf("wrote %s", *benchout)
	}
	for _, r := range runners {
		if want != "ALL" && want != r.id {
			continue
		}
		fmt.Printf("== %s: %s\n", r.id, r.doc)
		if r.record != nil {
			res, err := r.record(cfg)
			if err != nil {
				log.Fatalf("%s: %v", r.id, err)
			}
			fmt.Println(res)
			writeRecord(r.id, res)
			fmt.Println()
			continue
		}
		rows, err := r.fn(cfg)
		if err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		for _, row := range rows {
			fmt.Println(row)
		}
		fmt.Println()
	}
}
