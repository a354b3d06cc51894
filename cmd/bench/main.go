// Command bench regenerates the reproduction experiments of EXPERIMENTS.md.
// Each experiment prints one table row per (parameter, processor) pair:
//
//	bench -exp E4          # run one experiment
//	bench -exp all         # run everything (minutes)
//	bench -scale 4         # divide workload sizes by 4 for a quick pass
//
// The authoritative experiment list is the registry below — the -exp help
// string and the unknown-id error are generated from it, so the list
// cannot drift from the code. It covers the paper tables (E1–E12) and the
// ablations (A1–A3). Serving performance is measured by the benchmark
// harness in benchmark/ (see BENCHMARK.json), not here. -seed offsets
// every workload seed for seed-sensitivity reruns.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
)

// runner is one experiment id and the table experiment it runs.
type runner struct {
	id  string
	doc string
	fn  func(experiments.Config) ([]experiments.Row, error)
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
	flag.Parse()
	if *scale < 1 {
		*scale = 1
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}

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
	for _, r := range runners {
		if want != "ALL" && want != r.id {
			continue
		}
		fmt.Printf("== %s: %s\n", r.id, r.doc)
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
