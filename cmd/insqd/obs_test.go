package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	insq "repro"
	"repro/internal/api"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// syncBuffer makes the slow-op/access log buffer safe to read while
// background goroutines (shard workers, WAL sync) may still be logging.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newObsServer boots an instrumented in-memory engine behind the full
// HTTP stack: registry + runtime metrics + slow-op log with the given
// thresholds, exactly as main wires them. Extra option functions tweak
// the server configuration before construction.
func newObsServer(t *testing.T, th obs.Thresholds, logw io.Writer, optFns ...func(*server.Options)) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	pipe := obs.NewPipeline(reg, obs.NewSlowLog(slog.New(slog.NewTextHandler(logw, nil)), th))
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	e, err := insq.NewEngine(insq.EngineConfig{
		Shards:  2,
		Bounds:  bounds,
		Objects: insq.UniformPoints(300, bounds, 1),
		Obs:     pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := server.Options{Obs: pipe}
	for _, fn := range optFns {
		fn(&opts)
	}
	ts := httptest.NewServer(server.New(e, opts).Handler())
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts
}

// TestMetricsEndpoint scrapes /metrics on a live instrumented server and
// checks the exposition: stage histograms fed by real traffic, engine
// gauges, build info and runtime metrics, all in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	ts := newObsServer(t, obs.Thresholds{}, io.Discard)

	var created api.CreateSessionResponse
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 3}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	var upd api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{
		Updates: []api.UpdateEntry{{Session: created.Session, X: 10, Y: 10}},
	}, &upd); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	var obj api.ObjectResponse
	if code := postJSON(t, ts.URL+"/v1/objects", api.ObjectRequest{X: 5, Y: 5}, &obj); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if r.Header.Get("X-Trace-Id") == "" {
		t.Error("instrumented response missing X-Trace-Id")
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE insq_stage_duration_seconds histogram",
		`insq_stage_duration_seconds_bucket{stage="decode",le="+Inf"}`,
		`insq_stage_duration_seconds_bucket{stage="apply",le="+Inf"}`,
		`insq_shard_queue_depth{shard="0"}`,
		"insq_sessions 1",
		"insq_objects 301",
		"# TYPE insq_build_info gauge",
		"insq_go_goroutines",
		"insq_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsDisabled pins the opt-out: without a pipeline the route is
// absent and responses carry no trace header.
func TestMetricsDisabled(t *testing.T) {
	ts, _ := newTestServer(t)
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without obs: status %d, want 404", r.StatusCode)
	}
	if r.Header.Get("X-Trace-Id") != "" {
		t.Error("uninstrumented response has X-Trace-Id")
	}
}

// TestAccessLogTraces checks the opt-in access log: one structured line
// per request whose trace field matches the X-Trace-Id response header.
func TestAccessLogTraces(t *testing.T) {
	var logBuf syncBuffer
	ts := newObsServer(t, obs.Thresholds{}, io.Discard, func(o *server.Options) {
		o.AccessLog = slog.New(slog.NewTextHandler(&logBuf, nil))
	})

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	trace := r.Header.Get("X-Trace-Id")
	if trace == "" {
		t.Fatal("missing X-Trace-Id")
	}
	out := logBuf.String()
	for _, want := range []string{"msg=access", "method=GET", "path=/healthz", "status=200", "trace=" + trace} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %q:\n%s", want, out)
		}
	}
}

// TestSlowOpTraces is the end-to-end slow-op acceptance check: a durable
// engine (fsync=always) with nanosecond thresholds must log structured
// slow-fsync and slow-publish entries carrying the request's trace ID —
// the same ID the client sees in X-Trace-Id. Run with -race.
func TestSlowOpTraces(t *testing.T) {
	var logBuf syncBuffer
	reg := obs.NewRegistry()
	pipe := obs.NewPipeline(reg, obs.NewSlowLog(
		slog.New(slog.NewTextHandler(&logBuf, nil)),
		obs.Thresholds{Fsync: time.Nanosecond, Publish: time.Nanosecond}))

	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	objects := insq.UniformPoints(100, bounds, 1)
	mgr, err := wal.Open(index.Config{
		Bounds:  bounds,
		Objects: objects,
		Obs:     pipe,
	}, wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways, Obs: pipe})
	if err != nil {
		t.Fatal(err)
	}
	e, err := insq.NewEngine(insq.EngineConfig{
		Shards:  2,
		Bounds:  bounds,
		Objects: objects,
		Obs:     pipe,
		WAL:     mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(e, server.Options{Obs: pipe}).Handler())
	defer func() {
		ts.Close()
		if err := mgr.Close(); err != nil {
			t.Error(err)
		}
		e.Close()
	}()

	body := strings.NewReader(`{"x":10,"y":20}`)
	r, err := http.Post(ts.URL+"/v1/objects", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", r.StatusCode)
	}
	trace := r.Header.Get("X-Trace-Id")
	if trace == "" {
		t.Fatal("missing X-Trace-Id")
	}

	out := logBuf.String()
	for _, want := range []string{
		"msg=slow_op",
		"op=fsync trace=" + trace,
		"op=publish trace=" + trace,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-op log missing %q:\n%s", want, out)
		}
	}
	stage := func(st obs.Stage) uint64 {
		return reg.Histogram("insq_stage_duration_seconds", "", obs.Label{Name: "stage", Value: st.String()}).Count()
	}
	if stage(obs.StageFsync) == 0 || stage(obs.StageWALAppend) == 0 {
		t.Error("WAL stages not observed")
	}
}
