package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// measuredWindows is fixed: every rate and latency metric is the median
// over this many back-to-back windows, which makes one disturbed window
// (a noisy neighbour, a checkpoint, a GC cycle landing badly) harmless.
const (
	measuredWindows = 5
	tracedWindows   = 2
)

// runCfg is one invocation of the benchmark.
type runCfg struct {
	sp        spec
	seed      int64
	seconds   float64 // total measured time: measuredWindows windows
	traced    bool
	smoke     bool
	outDir    string
	setupReps int
	warm      time.Duration
	probe     probeCounts // traced runs: microprobe operation counts
}

func (c runCfg) window() time.Duration {
	return time.Duration(c.seconds / measuredWindows * float64(time.Second))
}

// result is the contract's one-line output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full account of a run, written beside the trace files and
// printed before the contract line.
type record struct {
	Stamp    stamp         `json:"stamp"`
	Spec     spec          `json:"spec"`
	SetupS   []float64     `json:"setup_runs_s"`
	Windows  windowed      `json:"windows"`
	Recovery recoveryTimes `json:"recovery"`
	HeapMB   float64       `json:"heap_live_mb"`
	// HeapTotalMB is the reading HeapMB was taken from, harness included.
	HeapTotalMB float64 `json:"heap_with_harness_mb"`
	Checks      checks  `json:"checks"`
	Result      result  `json:"result"`
}

func (c runCfg) stamp(windows int) stamp {
	st := newStamp()
	st.Workload, st.Seed, st.Traced, st.Smoke = c.sp.Name, c.seed, c.traced, c.smoke
	st.Windows, st.WindowS = windows, c.window().Seconds()
	st.WarmupS, st.SetupReps = c.warm.Seconds(), c.setupReps
	return st
}

// scratchDir makes the run's private directory for data dirs and crash
// images, inside the output directory (and so inside the checkout).
func (c runCfg) scratchDir() (string, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.outDir, "run-"+c.sp.Name+"-")
}

// timedSetups boots the system reps times, keeping the last; setup_s is
// the median. Every boot starts from a collected heap and a fresh
// directory, so they are repeats of one another and of a cold start.
func timedSetups(in *inputs, scratch string, reps int, withObs bool) (*system, []float64, error) {
	var times []float64
	var sys *system
	for r := 0; r < reps; r++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		dir := filepath.Join(scratch, fmt.Sprintf("data-%d", r))
		t0 := time.Now()
		var err error
		if sys, err = setup(in, dir, withObs); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, times, nil
}

// runEndToEnd measures the end-to-end metrics of one workload with
// harness tracing off and observability as shipped (on only where insqd
// turns it on: the serve workload).
func runEndToEnd(c runCfg) (*record, error) {
	in, err := generate(c.sp, c.seed)
	if err != nil {
		return nil, err
	}
	scratch, err := c.scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	sys, setups, err := timedSetups(in, scratch, c.setupReps, c.sp.Serve)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	d := runPhase(sys, phaseCfg{warm: c.warm, window: c.window(), windows: measuredWindows})
	if len(d.engStat) != measuredWindows+1 {
		return nil, fmt.Errorf("engine statistics read at %d of %d window boundaries", len(d.engStat), measuredWindows+1)
	}
	rec := &record{Stamp: c.stamp(measuredWindows), Spec: c.sp, SetupS: setups}
	rec.Windows = condense(d)
	if rec.Recovery, err = sys.crashAndRecover(scratch, &rec.Checks, false); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	// The harness's own data is still live when the heap is read at the
	// end of the last window, so what it holds once the system is gone is
	// taken off. d stays reachable until then so both readings hold its logs.
	rec.HeapTotalMB = d.heapMB
	rec.HeapMB = d.heapMB - rec.Recovery.HarnessHeapMB
	runtime.KeepAlive(d)

	w := &rec.Windows
	rec.Result = result{
		Attempted: w.Updates + w.Mutations + w.Pushes + rec.Checks.attempted(),
		Failed:    w.UpdatesFailed + w.MutationsFailed + w.PushesLost + rec.Checks.failed(),
		Metrics:   make(map[string]value, len(endToEnd)),
	}
	vals := rec.values()
	for _, m := range endToEnd {
		rec.Result.Metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	// Wrong answers, lost events and failed recoveries make the outputs
	// incorrect; shed or expired calls fail operations without doing so.
	rec.Result.Correct = w.PushesLost == 0 && rec.Checks.failed() == 0
	return rec, nil
}

// values returns the end-to-end metrics of the record by name.
func (rec *record) values() map[string]float64 {
	w := &rec.Windows
	return map[string]float64{
		"setup_s":                    median(rec.SetupS),
		"heap_live_mb":               rec.HeapMB,
		"recompute_rate_pct":         w.RecomputePct.Median,
		"objects_shipped_per_update": w.ShippedPerUp.Median,
		"search_steps_per_update":    w.SearchPerUp.Median,
	}
}

// callerTimings names the record's ungated timings, in print order.
var callerTimings = []string{"updates_per_s", "update_p50_us", "update_p95_us", "cpu_us_per_update",
	"mutation_p50_us", "push_p50_us", "recovery_s"}

// timings returns the caller's timings of the record by name.
func (rec *record) timings() map[string]float64 {
	w := &rec.Windows
	return map[string]float64{
		"updates_per_s":     w.UpdatesPerS.Median,
		"update_p50_us":     w.UpdateP50US.Median,
		"update_p95_us":     w.UpdateP95US.Median,
		"cpu_us_per_update": w.CPUPerUpUS.Median,
		"mutation_p50_us":   w.MutP50US.Median,
		"push_p50_us":       w.PushP50US.Median,
		"recovery_s":        rec.Recovery.MedianS,
	}
}

// writeRecord saves the full record next to the traces.
func writeRecord(dir, name string, rec any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printRecord renders the human-readable table of an end-to-end record.
func printRecord(rec *record) {
	st := rec.Stamp
	fmt.Printf("workload %s  seed %d  %d windows x %.2fs (warm-up %.1fs)  %s %s/%s GOMAXPROCS=%d nproc=%d\n",
		st.Workload, st.Seed, st.Windows, st.WindowS, st.WarmupS, st.GoVersion, st.GOOS, st.GOARCH, st.GOMAXPROCS, st.NumCPU)
	fmt.Printf("cpu %q  commit %s\n", st.CPUModel, st.Commit)
	w := rec.Windows
	row := func(name, unit string, s series) {
		fmt.Printf("  %-26s %12.3f %-5s  min %12.3f  max %12.3f  samples/window %v\n",
			name, s.Median, unit, s.Min, s.Max, s.Samples)
	}
	fmt.Println("  end-to-end (gated):")
	fmt.Printf("  %-26s %12.3f %-5s  runs %.3f\n", "setup_s", median(rec.SetupS), "s", rec.SetupS)
	fmt.Printf("  %-26s %12.3f %-5s  (%.3f MB at the end of the last window - %.3f MB the harness holds)\n", "heap_live_mb",
		rec.HeapMB, "MB", rec.HeapTotalMB, rec.Recovery.HarnessHeapMB)
	row("recompute_rate_pct", "%", w.RecomputePct)
	row("objects_shipped_per_update", "count", w.ShippedPerUp)
	row("search_steps_per_update", "count", w.SearchPerUp)
	fmt.Println("  caller timings (as measured on this machine; not gated, see README \"Noise\"):")
	row("updates_per_s", "1/s", w.UpdatesPerS)
	row("update_p50_us", "us", w.UpdateP50US)
	row(fmt.Sprintf("update_p%.0f_us", w.P95Rule), "us", w.UpdateP95US)
	row("cpu_us_per_update", "us", w.CPUPerUpUS)
	row("mutation_p50_us", "us", w.MutP50US)
	row("push_p50_us", "us", w.PushP50US)
	fmt.Printf("  %-26s %12.3f %-5s  copies %.3f  (checkpoint %.3fs, %d mutations replayed)\n", "recovery_s",
		rec.Recovery.MedianS, "s", rec.Recovery.CopiesS, rec.Recovery.CheckpointS, rec.Recovery.ReplayedMuts)
	fmt.Printf("  mutator lateness p50 %.1f us, max %.1f us\n", w.LatenessP50US, w.LatenessMaxUS)
	fmt.Printf("  operations: %d update entries (%d failed), %d mutation calls (%d failed), %d pushes (%d lost)\n",
		w.Updates, w.UpdatesFailed, w.Mutations, w.MutationsFailed, w.Pushes, w.PushesLost)
	c := rec.Checks
	fmt.Printf("  checks: oracle %d sessions (%d wrong), epoch mismatch %d, recovery %d checks (%d failed), tail %d mutations (%d failed)\n",
		c.OracleSessions, c.OracleWrong, c.EpochMismatch, c.RecoveryChecks, c.RecoveryFailed, c.TailMutations, c.TailFailed)
}
