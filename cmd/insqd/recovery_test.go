package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	insq "repro"
	"repro/internal/api"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// recoveryConfig is the shared seed state of the durable server and the
// in-process reference it must stay equivalent to.
func recoveryConfig(t *testing.T) insq.EngineConfig {
	t.Helper()
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	g, err := workload.Network(4, bounds, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	return insq.EngineConfig{
		Shards:       2,
		Bounds:       bounds,
		Objects:      insq.UniformPoints(300, bounds, 1),
		Network:      g,
		NetworkSites: sites,
	}
}

// startDurable boots an engine on the data dir (fsync=always so an
// abandoned manager models SIGKILL) and mounts the HTTP stack on it.
func startDurable(t *testing.T, cfg insq.EngineConfig, dir string) (*httptest.Server, *insq.Engine, *wal.Manager) {
	t.Helper()
	mgr, err := wal.Open(index.Config{
		Bounds:       cfg.Bounds,
		Objects:      cfg.Objects,
		Network:      cfg.Network,
		NetworkSites: cfg.NetworkSites,
	}, wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = mgr
	e, err := insq.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(newServer(e, false).Handler()), e, mgr
}

// driveMutations sends the same object churn to both servers over HTTP
// and asserts the durable side assigns the same ids as the reference.
func driveMutations(t *testing.T, durable, ref string) {
	t.Helper()
	for i := 0; i < 8; i++ {
		var dresp, rresp api.ObjectResponse
		obj := api.ObjectRequest{X: float64(100 + 90*i), Y: float64(700 - 60*i)}
		if code := postJSON(t, durable+"/v1/objects", obj, &dresp); code != http.StatusOK {
			t.Fatalf("durable insert: status %d", code)
		}
		if code := postJSON(t, ref+"/v1/objects", obj, &rresp); code != http.StatusOK {
			t.Fatalf("reference insert: status %d", code)
		}
		if dresp.ID != rresp.ID {
			t.Fatalf("insert %d: durable id %d, reference id %d", i, dresp.ID, rresp.ID)
		}
	}
	for _, id := range []int{3, 17, 42} {
		for _, base := range []string{durable, ref} {
			if code := doDelete(t, base+"/v1/objects/"+itoa(id)); code != http.StatusNoContent {
				t.Fatalf("delete %d on %s: status %d", id, base, code)
			}
		}
	}
	var dresp, rresp api.ObjectResponse
	if code := postJSON(t, durable+"/v1/network/objects", api.NetworkObjectRequest{Vertex: 9}, &dresp); code != http.StatusOK {
		t.Fatalf("durable network insert: status %d", code)
	}
	if code := postJSON(t, ref+"/v1/network/objects", api.NetworkObjectRequest{Vertex: 9}, &rresp); code != http.StatusOK {
		t.Fatalf("reference network insert: status %d", code)
	}
}

// probeKNN opens a fresh plane and network session and returns their
// kNN answers at fixed probe positions.
func probeKNN(t *testing.T, base string) (plane, network []int) {
	t.Helper()
	var planeSess, netSess api.CreateSessionResponse
	if code := postJSON(t, base+"/v1/sessions", api.CreateSessionRequest{K: 5}, &planeSess); code != http.StatusOK {
		t.Fatalf("create plane session: status %d", code)
	}
	if code := postJSON(t, base+"/v1/sessions", api.CreateSessionRequest{K: 3, Network: true}, &netSess); code != http.StatusOK {
		t.Fatalf("create network session: status %d", code)
	}
	var presp api.UpdateResponse
	if code := postJSON(t, base+"/v1/update", api.UpdateRequest{
		Updates: []api.UpdateEntry{{Session: planeSess.Session, X: 512, Y: 316}},
	}, &presp); code != http.StatusOK {
		t.Fatalf("plane update: status %d", code)
	}
	if presp.Results[0].Error != "" {
		t.Fatalf("plane update: %s", presp.Results[0].Error)
	}
	var nresp api.UpdateResponse
	if code := postJSON(t, base+"/v1/network/update", api.NetworkUpdateRequest{
		Updates: []api.NetworkUpdateEntry{{Session: netSess.Session, U: 5, V: 6, T: 0.25}},
	}, &nresp); code != http.StatusOK {
		t.Fatalf("network update: status %d", code)
	}
	if nresp.Results[0].Error != "" {
		t.Fatalf("network update: %s", nresp.Results[0].Error)
	}
	return presp.Results[0].KNN, nresp.Results[0].KNN
}

// TestServerCrashRestartEquivalence kills the durable server mid-flight
// (no manager Close, so no final checkpoint) and restarts it on the same
// data dir: every HTTP answer — plane and network sessions, stats, the
// next assigned object id — must match an in-process reference server
// that never crashed.
func TestServerCrashRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t)

	refEngine, err := insq.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refServer := httptest.NewServer(newServer(refEngine, false).Handler())
	t.Cleanup(func() { refServer.Close(); refEngine.Close() })

	ts1, e1, _ := startDurable(t, cfg, dir)
	driveMutations(t, ts1.URL, refServer.URL)
	wantPlane, wantNet := probeKNN(t, refServer.URL)
	gotPlane, gotNet := probeKNN(t, ts1.URL)
	if !reflect.DeepEqual(gotPlane, wantPlane) || !reflect.DeepEqual(gotNet, wantNet) {
		t.Fatalf("pre-crash drift: plane %v vs %v, network %v vs %v", gotPlane, wantPlane, gotNet, wantNet)
	}

	// Crash: tear down the HTTP stack and engine but abandon the manager
	// without Close — no final checkpoint, the WAL tail alone must carry
	// the recovery (fsync=always means every acknowledged batch is on
	// disk).
	ts1.Close()
	e1.Close()

	ts2, e2, mgr2 := startDurable(t, cfg, dir)
	t.Cleanup(func() {
		ts2.Close()
		mgr2.Close()
		e2.Close()
	})
	ws := mgr2.Stats()
	if ws.ReplayedBatches == 0 {
		t.Fatal("restart replayed no WAL batches despite the missing final checkpoint")
	}
	gotPlane, gotNet = probeKNN(t, ts2.URL)
	if !reflect.DeepEqual(gotPlane, wantPlane) {
		t.Fatalf("plane kNN after restart: %v, want %v", gotPlane, wantPlane)
	}
	if !reflect.DeepEqual(gotNet, wantNet) {
		t.Fatalf("network kNN after restart: %v, want %v", gotNet, wantNet)
	}

	// Id continuity through the HTTP stack: the next insert lands on the
	// same id the uncrashed reference assigns.
	var dresp, rresp api.ObjectResponse
	if code := postJSON(t, ts2.URL+"/v1/objects", api.ObjectRequest{X: 1, Y: 2}, &dresp); code != http.StatusOK {
		t.Fatalf("post-restart insert: status %d", code)
	}
	if code := postJSON(t, refServer.URL+"/v1/objects", api.ObjectRequest{X: 1, Y: 2}, &rresp); code != http.StatusOK {
		t.Fatalf("reference insert: status %d", code)
	}
	if dresp.ID != rresp.ID {
		t.Fatalf("post-restart id %d, reference %d", dresp.ID, rresp.ID)
	}

	// The stats surface reports the recovery.
	r, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.WAL == nil {
		t.Fatal("stats response carries no wal section on a durable server")
	}
	if stats.WAL.ReplayedBatches == 0 || stats.WAL.Policy != "always" {
		t.Fatalf("wal stats: %+v", stats.WAL)
	}
}

// TestServerNotReadyDuringRecovery asserts the boot-time readiness gate:
// before the engine is published every route except the liveness probe
// answers 503 with a Retry-After hint (liveness /healthz answers 200 the
// whole time — the process is up), and traffic flows once setEngine runs.
func TestServerNotReadyDuringRecovery(t *testing.T) {
	hs := server.NewPending(server.Options{})
	ts := httptest.NewServer(hs.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/stats", "/readyz", "/v1/sessions"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before ready: status %d, want 503", path, r.StatusCode)
		}
		if ra := r.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("GET %s before ready: no Retry-After header", path)
		}
		r.Body.Close()
	}
	r0, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r0.Body.Close()
	if r0.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz before ready: status %d, want 200 (liveness is not gated)", r0.StatusCode)
	}

	cfg := recoveryConfig(t)
	e, err := insq.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	hs.SetEngine(e)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz after setEngine: status %d", r.StatusCode)
	}
}
