package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Noise calibration: run the whole benchmark N times, each run its own
// process with its own seed exactly as the driver runs it, and show for
// every (metric, workload) pair how far the runs disagree. A benchmark
// whose own spread is wider than a metric's regression bound cannot police
// that bound, so the mode fails when any spread exceeds a third of it. The
// spread judged is the driver's: the distance between the quartiles of the
// runs as a share of their median; (max-min)/median is printed beside it.
// A second table shows the same for the caller's timings, which are not
// gated: it is the evidence for that, and says when a machine is steady
// enough to promote them.

// calRow is one (metric, workload) pair's values over the runs. A caller
// timing is a row with no bound.
type calRow struct {
	metric   metricDef
	workload string
	values   []float64
}

// line renders the row's spread columns: median, min, max,
// (max-min)/median and IQR/median (the last also returned).
func (r *calRow) line() (string, float64) {
	s := newSeries(r.values, nil)
	iqr := quartileSpread(r.values)
	return fmt.Sprintf("| %s | %s | %s | %s | %s | %.1f%% | %.1f%% |", r.metric.Name, r.workload,
		sig(s.Median), sig(s.Min), sig(s.Max), 100*(s.Max-s.Min)/s.Median, 100*iqr), iqr
}

// runCalibration returns the process exit code.
func runCalibration(n int, seed int64, seconds float64, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var gated, timed []*calRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			gated = append(gated, &calRow{metric: m, workload: w.Name})
		}
		for _, name := range callerTimings {
			timed = append(timed, &calRow{metric: metricDef{Name: name}, workload: w.Name})
		}
	}
	failedOps := int64(0)
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			res, err := runChild(self, w.Name, seed+int64(i), seconds, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed+int64(i), err)
				return 1
			}
			failedOps += res.Failed
			timings, err := recordTimings(outDir, w.Name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed+int64(i), err)
				return 1
			}
			for _, r := range gated {
				if r.workload == w.Name {
					r.values = append(r.values, res.Metrics[r.metric.Name].Value)
				}
			}
			for _, r := range timed {
				if r.workload == w.Name {
					r.values = append(r.values, timings[r.metric.Name])
				}
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d/%d %s done (failed ops %d)\n", i+1, n, w.Name, res.Failed)
		}
	}

	// The tables are Markdown: README.md carries two sets of them.
	st := newStamp()
	fmt.Printf("calibration: %d runs per workload, seeds %d..%d, %gs measured per run; %s GOMAXPROCS=%d nproc=%d cpu %q commit %s\n\n",
		n, seed, seed+int64(n)-1, seconds, st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.CPUModel, st.Commit)
	fmt.Println("| metric | workload | median | min | max | (max-min)/median | IQR/median | bound | verdict |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---|")
	bad := 0
	for _, r := range gated {
		line, iqr := r.line()
		verdict := "ok"
		// setup_s is exempt from the driver's spread rule (only its
		// medians are compared), so it is reported but not judged.
		if r.metric.Name != "setup_s" && iqr > r.metric.Bound/3 {
			verdict = "NOISY"
			bad++
		}
		fmt.Printf("%s %.0f%% | %s |\n", line, 100*r.metric.Bound, verdict)
	}
	fmt.Print("\ncaller timings (as measured, not gated):\n\n")
	fmt.Println("| timing | workload | median | min | max | (max-min)/median | IQR/median |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|")
	for _, r := range timed {
		line, _ := r.line()
		fmt.Println(line)
	}
	if failedOps > 0 {
		fmt.Printf("\n%d operations failed across the runs\n", failedOps)
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// sig formats with four significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// runChild runs one end-to-end run in its own process and parses the
// contract line off the end of its output.
func runChild(self, workload string, seed int64, seconds float64, outDir string) (result, error) {
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--out", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to exit
		return result{}, err
	}
	return parseResultLine(&out)
}

// recordTimings reads the record the child just wrote and returns the
// caller's timings in it.
func recordTimings(outDir, workload string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(outDir, "record-"+workload+".json"))
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	return rec.timings(), nil
}

// parseResultLine decodes the last non-empty line of a run's output.
func parseResultLine(out *bytes.Buffer) (result, error) {
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
