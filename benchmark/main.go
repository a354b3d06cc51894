// Command benchmark is the repository's performance benchmark: four long
// closed-loop moving-kNN workloads driven against the serving stack
// (engine, WAL, stream, and for one workload the whole insqd frontend),
// each checked against a brute-force oracle and a crash-recovery check.
//
//	go run ./benchmark -workload plane_engine -seed 1 -seconds 12 -trace 0
//
// prints a human-readable record and, as the last line of standard
// output, one JSON object with the end-to-end metrics. With
// -trace 1 the same workload runs traced and the line carries the
// per-layer metrics instead; the spans go to <out>/trace-<workload>.json.
// -calibrate N measures the benchmark's own run-to-run noise. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: plane_engine, network_engine, serve_pipeline or churn_recover")
		seed      = flag.Int64("seed", 1, "drives every generator of the run (sessions, trajectories, probes, churn, recovery tail); the same seed replays the same inputs")
		seconds   = flag.Float64("seconds", 12, "measured time: split into 5 equal windows (2 when traced)")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics with tracing off")
		smoke     = flag.Bool("smoke", false, "tiny datasets and windows: exercises the harness, measures nothing")
		calibrate = flag.Int("calibrate", 0, "run N end-to-end runs of every workload (seeds seed..seed+N-1) and print the noise table; exit 1 if any spread exceeds a third of its bound")
		outDir    = flag.String("out", "benchmark/out", "directory for trace files, records and scratch data (created; must be writable)")
	)
	flag.Parse()
	if *calibrate > 0 {
		os.Exit(runCalibration(*calibrate, *seed, *seconds, *outDir))
	}
	sp, err := findWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	cfg := runCfg{sp: sp, seed: *seed, seconds: *seconds, traced: *trace != 0,
		outDir: *outDir, setupReps: 3, warm: 1500 * time.Millisecond, probe: fullProbes}
	if *smoke {
		cfg = cfg.smoked()
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// smoked shrinks an invocation to test size: tiny datasets, windows of at
// most 100 ms, a handful of probe operations.
func (c runCfg) smoked() runCfg {
	c.smoke = true
	c.sp = c.sp.smoke()
	c.seconds = min(c.seconds, 0.5)
	c.warm = 50 * time.Millisecond
	c.probe = smokeProbes
	return c
}

// run executes one benchmark invocation, prints its record and returns the
// contract line.
func run(cfg runCfg) (result, error) {
	if cfg.traced {
		rec, err := runTraced(cfg)
		if err != nil {
			return result{}, err
		}
		printTraced(rec)
		if err := writeRecord(cfg.outDir, "record-"+cfg.sp.Name+"-traced.json", rec); err != nil {
			return result{}, err
		}
		return rec.Result, nil
	}
	rec, err := runEndToEnd(cfg)
	if err != nil {
		return result{}, err
	}
	printRecord(rec)
	if err := writeRecord(cfg.outDir, "record-"+cfg.sp.Name+".json", rec); err != nil {
		return result{}, err
	}
	return rec.Result, nil
}
