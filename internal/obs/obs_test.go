package obs

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every handle must be callable through nil: nil pipeline, nil
	// registry, nil slow log, nil counter/gauge/histogram.
	var p *Pipeline
	if p.Enabled() {
		t.Error("nil pipeline reports enabled")
	}
	if p.Registry() != nil {
		t.Error("nil pipeline registry not nil")
	}
	p.Observe(StageApply, time.Millisecond)
	p.SlowBatch("t", 1, 2, time.Second)
	p.SlowFsync("t", time.Second)
	p.SlowPublish("t", 1, 2, time.Second)
	p.StreamOverflow(7, 8)
	if stageCount(p.Registry(), StageApply) != 0 {
		t.Error("nil pipeline counted a stage")
	}

	var r *Registry
	r.Counter("x", "h").Inc()
	r.Gauge("x", "h").Set(1)
	r.Histogram("x", "h").Observe(time.Second)
	r.CounterFunc("x", "h", func() float64 { return 1 })
	r.GaugeFunc("x", "h", func() float64 { return 1 })
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	RegisterRuntimeMetrics(r)

	var s *SlowLog
	s.Batch("t", 1, 2, time.Second)
	s.Fsync("t", time.Second)
	s.Publish("t", 1, 2, time.Second)
	s.StreamOverflow(1, 2)
	s.bindCounters(nil)

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter holds a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge holds a value")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 {
		t.Error("nil histogram counted")
	}
}

func TestCounterGaugeValues(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("insq_test_total", "h")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	// Re-registering the same series returns the same handle.
	if c2 := reg.Counter("insq_test_total", "h"); c2 != c {
		t.Error("re-registration returned a new counter")
	}
	g := reg.Gauge("insq_test_gauge", "h")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("insq_conflict", "h")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	reg.Gauge("insq_conflict", "h")
}

// lintPrometheus does a minimal format check over exposition output:
// every sample name has preceding # HELP and # TYPE lines, no duplicate
// TYPE lines per family, and histogram cumulative buckets are monotone
// with a final +Inf equal to _count.
func lintPrometheus(t *testing.T, out string) {
	t.Helper()
	typed := map[string]string{}
	helped := map[string]bool{}
	type histState struct {
		prevLe  float64
		prevCum uint64
		infSeen bool
		inf     uint64
		count   uint64
	}
	hists := map[string]*histState{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if typed[f[2]] != "" {
				t.Fatalf("duplicate TYPE for %s", f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := series
		var labels string
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
			if !strings.HasSuffix(labels, "}") {
				t.Fatalf("unterminated labels: %q", line)
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suf); trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if typed[base] == "" || !helped[base] {
			t.Fatalf("sample %q before its HELP/TYPE lines", line)
		}
		if typed[base] != "histogram" {
			continue
		}
		// histogram key = base + labels sans le.
		key := base + stripLe(labels)
		hs := hists[key]
		if hs == nil {
			hs = &histState{}
			hists[key] = hs
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := leValue(t, labels)
			cum := uint64(val)
			if le == -1 { // +Inf
				hs.infSeen, hs.inf = true, cum
			} else {
				if hs.infSeen {
					t.Fatalf("bucket after +Inf in %s", key)
				}
				if le <= hs.prevLe && hs.prevCum != 0 {
					t.Fatalf("non-increasing le in %s: %v after %v", key, le, hs.prevLe)
				}
				if cum < hs.prevCum {
					t.Fatalf("non-monotone cumulative count in %s", key)
				}
				hs.prevLe, hs.prevCum = le, cum
			}
		case strings.HasSuffix(name, "_count"):
			hs.count = uint64(val)
		}
	}
	for key, hs := range hists {
		if !hs.infSeen {
			t.Errorf("histogram %s missing +Inf bucket", key)
		}
		if hs.inf != hs.count {
			t.Errorf("histogram %s: +Inf %d != _count %d", key, hs.inf, hs.count)
		}
		if hs.prevCum > hs.inf {
			t.Errorf("histogram %s: last bucket %d exceeds +Inf %d", key, hs.prevCum, hs.inf)
		}
	}
}

func stripLe(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, part := range strings.Split(inner, ",") {
		if !strings.HasPrefix(part, `le="`) {
			kept = append(kept, part)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

func leValue(t *testing.T, labels string) float64 {
	t.Helper()
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, part := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(part, `le="`); ok {
			v = strings.TrimSuffix(v, `"`)
			if v == "+Inf" {
				return -1
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", v, err)
			}
			return f
		}
	}
	t.Fatalf("bucket sample without le: %q", labels)
	return 0
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	slow := NewSlowLog(slog.New(slog.NewTextHandler(io.Discard, nil)), Thresholds{})
	p := NewPipeline(reg, slow)
	RegisterRuntimeMetrics(reg)
	reg.Counter("insq_example_total", "An example.", Label{Name: "kind", Value: "a"}).Add(3)
	reg.Gauge("insq_example_gauge", "Another.").Set(-2)
	for i := 0; i < 100; i++ {
		p.Observe(StageApply, time.Duration(i)*time.Microsecond)
		p.Observe(StageQueue, time.Duration(i)*time.Millisecond)
	}
	p.Observe(StageFsync, 0)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lintPrometheus(t, out)

	for _, want := range []string{
		"# TYPE insq_stage_duration_seconds histogram",
		`insq_stage_duration_seconds_bucket{stage="apply",le="+Inf"} 100`,
		`insq_stage_duration_seconds_count{stage="queue"} 100`,
		"# TYPE insq_slow_ops_total counter",
		`insq_slow_ops_total{op="fsync"} 0`,
		`insq_example_total{kind="a"} 3`,
		"insq_example_gauge -2",
		"# TYPE insq_uptime_seconds gauge",
		"insq_build_info{",
		"insq_go_goroutines",
		"insq_go_heap_alloc_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := stageCount(reg, StageApply); n != 100 {
		t.Errorf("apply stage count = %d", n)
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("insq_escape_total", "line1\nline2 with \\slash",
		Label{Name: "v", Value: "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP insq_escape_total line1\nline2 with \\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `insq_escape_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestSlowLogThresholdsAndTraces(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, nil))
	reg := NewRegistry()
	slow := NewSlowLog(lg, Thresholds{Batch: time.Millisecond, Fsync: time.Millisecond, Publish: 0})
	p := NewPipeline(reg, slow)

	p.SlowBatch("trace-1", 3, 64, 2*time.Millisecond) // over threshold
	p.SlowBatch("trace-2", 3, 64, 500*time.Microsecond)
	p.SlowFsync("trace-3", 5*time.Millisecond)
	p.SlowPublish("trace-4", 9, 1, time.Hour) // publish threshold off
	p.StreamOverflow(42, 256)

	out := buf.String()
	if !strings.Contains(out, "op=batch") || !strings.Contains(out, "trace=trace-1") {
		t.Errorf("slow batch not logged:\n%s", out)
	}
	if strings.Contains(out, "trace-2") {
		t.Errorf("under-threshold batch logged:\n%s", out)
	}
	if !strings.Contains(out, "op=fsync") || !strings.Contains(out, "trace=trace-3") {
		t.Errorf("slow fsync not logged:\n%s", out)
	}
	if strings.Contains(out, "op=publish") {
		t.Errorf("disabled publish threshold logged:\n%s", out)
	}
	if !strings.Contains(out, "op=stream_overflow") || !strings.Contains(out, "session=42") {
		t.Errorf("stream overflow not logged:\n%s", out)
	}

	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`insq_slow_ops_total{op="batch"} 1`,
		`insq_slow_ops_total{op="fsync"} 1`,
		`insq_slow_ops_total{op="publish"} 0`,
		`insq_slow_ops_total{op="stream_overflow"} 1`,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b || a == "" {
		t.Errorf("trace IDs not unique: %q %q", a, b)
	}
	ctx := WithTraceID(context.Background(), a)
	if got := TraceID(ctx); got != a {
		t.Errorf("TraceID = %q, want %q", got, a)
	}
	if TraceID(context.Background()) != "" {
		t.Error("background context carries a trace")
	}
	if TraceID(nil) != "" { //nolint:staticcheck // nil ctx tolerance is the contract
		t.Error("nil context carries a trace")
	}
}

func TestBuildInfo(t *testing.T) {
	version, goVersion, _ := Build()
	if version == "" || !strings.HasPrefix(goVersion, "go") {
		t.Errorf("Build() = %q %q", version, goVersion)
	}
}

func TestConcurrentObserve(t *testing.T) {
	// Exercised with -race in CI: concurrent observes and a scrape.
	reg := NewRegistry()
	p := NewPipeline(reg, nil)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				p.Observe(StageApply, time.Duration(i))
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := stageCount(reg, StageApply); n != 4000 {
		t.Errorf("count = %d", n)
	}
}

// stageCount reads one stage's observation count from the registry's
// insq_stage_duration_seconds family (0 on a nil registry).
func stageCount(reg *Registry, st Stage) uint64 {
	return reg.Histogram("insq_stage_duration_seconds", "", Label{Name: "stage", Value: st.String()}).Count()
}
