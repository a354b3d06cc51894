package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	insq "repro"
	"repro/internal/api"
	"repro/internal/workload"
)

func itoa(v int) string { return strconv.Itoa(v) }

func getJSON(t *testing.T, url string, resp any) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode < 300 {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r.StatusCode
}

// newNetworkTestServer boots a server with both a plane and a road-network
// side, mirroring `insqd -network-grid 16 -network-sites 40`.
func newNetworkTestServer(t *testing.T) (*httptest.Server, *insq.Engine, *insq.RoadNetwork) {
	t.Helper()
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	g, err := workload.Network(16, bounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := insq.NewEngine(insq.EngineConfig{
		Shards:       4,
		Bounds:       bounds,
		Objects:      insq.UniformPoints(200, bounds, 1),
		Network:      g,
		NetworkSites: sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(e, false).Handler())
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e, g
}

// TestServerNetworkEndToEnd drives the road-network serving flow over
// HTTP: create a network session, feed edge positions, mutate the site
// set and observe the session's kNN change — the acceptance flow of
// network serving parity at the outermost surface.
func TestServerNetworkEndToEnd(t *testing.T) {
	ts, e, g := newNetworkTestServer(t)

	var sess api.CreateSessionResponse
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 3, Network: true}, &sess); code != 200 {
		t.Fatalf("create network session: status %d", code)
	}

	// Park the session at a free vertex.
	home := 0
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	initialSites := st.NetworkObjects
	for {
		if err := mutate(e, insq.Mutation{Network: true, Insert: true, ID: home}); err == nil {
			if err := mutate(e, insq.Mutation{Network: true, ID: home}); err != nil {
				t.Fatal(err)
			}
			break // home was free (probe insert undone)
		}
		home++
	}
	var upd api.UpdateResponse
	req := api.NetworkUpdateRequest{Updates: []api.NetworkUpdateEntry{{Session: sess.Session, U: home, V: home}}}
	if code := postJSON(t, ts.URL+"/v1/network/update", req, &upd); code != 200 {
		t.Fatalf("network update: status %d", code)
	}
	if upd.Results[0].Error != "" {
		t.Fatalf("network update error: %s", upd.Results[0].Error)
	}
	baseline := upd.Results[0].KNN
	for _, id := range baseline {
		if id == home {
			t.Fatalf("baseline kNN %v already contains %d", baseline, home)
		}
	}

	// Insert a site at the session's own vertex over HTTP: it must lead
	// the next answer.
	var obj api.ObjectResponse
	if code := postJSON(t, ts.URL+"/v1/network/objects", api.NetworkObjectRequest{Vertex: home}, &obj); code != 200 {
		t.Fatalf("insert network object: status %d", code)
	}
	if obj.ID != home {
		t.Fatalf("network object id = %d, want the vertex %d", obj.ID, home)
	}
	if code := postJSON(t, ts.URL+"/v1/network/update", req, &upd); code != 200 {
		t.Fatalf("network update: status %d", code)
	}
	if knn := upd.Results[0].KNN; len(knn) == 0 || knn[0] != home {
		t.Fatalf("post-insert kNN %v does not lead with the site at the query position %d", knn, home)
	}

	// Remove it again: the answer reverts to the baseline set.
	if code := doDelete(t, ts.URL+"/v1/network/objects/"+itoa(home)); code != 204 {
		t.Fatalf("delete network object: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/network/update", req, &upd); code != 200 {
		t.Fatalf("network update: status %d", code)
	}
	if !sameSet(upd.Results[0].KNN, baseline) {
		t.Fatalf("post-remove kNN %v, want baseline %v", upd.Results[0].KNN, baseline)
	}

	// Error surface: duplicate insert 409, unknown removal 404, vertex out
	// of range 400, plane update against a network session is a per-entry
	// error (HTTP 200).
	if code := postJSON(t, ts.URL+"/v1/network/objects", api.NetworkObjectRequest{Vertex: firstSite(t, e)}, nil); code != 409 {
		t.Fatalf("duplicate site insert: status %d, want 409", code)
	}
	if code := doDelete(t, ts.URL+"/v1/network/objects/"+itoa(home)); code != 404 {
		t.Fatalf("remove of free vertex: status %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/network/objects", api.NetworkObjectRequest{Vertex: g.NumVertices()}, nil); code != 400 {
		t.Fatalf("out-of-range vertex insert: status %d, want 400", code)
	}
	var planeUpd api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Updates: []api.UpdateEntry{{Session: sess.Session, X: 1, Y: 1}}}, &planeUpd); code != 200 {
		t.Fatalf("plane update: status %d", code)
	}
	if planeUpd.Results[0].Error == "" {
		t.Fatal("plane update against a network session did not error")
	}

	// Stats expose the network object count.
	var stats api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if stats.NetworkObjects != initialSites {
		t.Fatalf("stats network_objects = %d, want %d", stats.NetworkObjects, initialSites)
	}
}

// TestServerNetworkSessionOnPlaneOnlyServer: asking for a network session
// on a plane-only server is a clean 400.
func TestServerNetworkSessionOnPlaneOnlyServer(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 3, Network: true}, nil); code != 400 {
		t.Fatalf("network session on plane-only server: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/network/objects", api.NetworkObjectRequest{Vertex: 1}, nil); code != 400 {
		t.Fatalf("network object on plane-only server: status %d, want 400", code)
	}
}

func firstSite(t *testing.T, e *insq.Engine) int {
	t.Helper()
	// Probe vertices until one rejects insertion as a duplicate — that
	// one is a live site. Cheap on the small test grid.
	for v := 0; ; v++ {
		if err := mutate(e, insq.Mutation{Network: true, Insert: true, ID: v}); err != nil {
			return v
		}
		if err := mutate(e, insq.Mutation{Network: true, ID: v}); err != nil {
			t.Fatal(err)
		}
	}
}
