package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	insq "repro"
	"repro/internal/api"
	insqclient "repro/internal/client"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/workload"
)

// newIngestServer boots a plane+network engine behind internal/server
// with the given coalesce window, plus a raw TCP ingest listener.
func newIngestServer(t *testing.T, window time.Duration) (*httptest.Server, net.Listener, *insq.Engine) {
	t.Helper()
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	g, err := workload.Network(8, bounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := insq.NewEngine(insq.EngineConfig{
		Shards:       4,
		Bounds:       bounds,
		Objects:      insq.UniformPoints(300, bounds, 2),
		Network:      g,
		NetworkSites: sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := server.New(e, server.Options{CoalesceWindow: window})
	ts := httptest.NewServer(hs.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.ServeIngest(ln)
	t.Cleanup(func() {
		ln.Close()
		ts.Close()
		e.Close()
	})
	return ts, ln, e
}

// TestIngestStreamHTTP drives the binary path over POST /v1/ingest:
// location updates with results, object mutations with echoed ids, and
// per-entry error codes — then checks the ingest counters in /v1/stats.
func TestIngestStreamHTTP(t *testing.T) {
	ts, _, _ := newIngestServer(t, 0)
	c := insqclient.New(ts.URL, insqclient.Options{})
	sid, err := c.CreateSession(3, 1.6, false)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := c.DialIngest(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}

	// A location update with results: one OK entry with a kNN answer, one
	// unknown session surfacing as a per-entry code.
	ack, err := ing.Call(api.IngestBatch{
		WantResults: true,
		Updates: []api.UpdateEntry{
			{Session: sid, X: 100, Y: 100},
			{Session: 9999, X: 1, Y: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != api.CodeOK || ack.Applied != 1 {
		t.Fatalf("update ack: %+v", ack)
	}
	if len(ack.Results) != 2 {
		t.Fatalf("results: %+v", ack.Results)
	}
	if ack.Results[0].Code != api.CodeOK || len(ack.Results[0].KNN) != 3 {
		t.Fatalf("entry 0: %+v", ack.Results[0])
	}
	if ack.Results[1].Code != api.CodeUnknownSession {
		t.Fatalf("entry 1: %+v, want unknown_session", ack.Results[1])
	}

	// Mutations: insert echoes the assigned id, remove echoes the target.
	ack, err = ing.Call(api.IngestBatch{
		WantResults: true,
		Mutations:   []index.Mutation{{Insert: true, P: geom.Pt(500, 500)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != api.CodeOK || len(ack.MutationIDs) != 1 {
		t.Fatalf("insert ack: %+v", ack)
	}
	id := ack.MutationIDs[0]
	ack, err = ing.Call(api.IngestBatch{
		WantResults: true,
		Mutations:   []index.Mutation{{ID: id}},
	})
	if err != nil || ack.Code != api.CodeOK {
		t.Fatalf("remove ack: %+v, err %v", ack, err)
	}
	// A bad mutation fails its whole frame with the mapped code.
	ack, err = ing.Call(api.IngestBatch{
		Mutations: []index.Mutation{{ID: id}}, // already removed
	})
	if err != nil || ack.Code != api.CodeUnknownObject {
		t.Fatalf("double remove ack: %+v, err %v, want unknown_object", ack, err)
	}

	// Results are elided unless asked for.
	ack, err = ing.Call(api.IngestBatch{
		Updates: []api.UpdateEntry{{Session: sid, X: 101, Y: 101}},
	})
	if err != nil || ack.Code != api.CodeOK || len(ack.Results) != 0 {
		t.Fatalf("elided ack: %+v, err %v", ack, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil {
		t.Fatal("stats missing ingest section after binary traffic")
	}
	if st.Ingest.FramesTotal < 5 || st.Ingest.Connections != 1 {
		t.Fatalf("ingest stats: %+v", st.Ingest)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestIngestStreamTCP covers the raw listener: same protocol, no HTTP.
func TestIngestStreamTCP(t *testing.T) {
	ts, ln, _ := newIngestServer(t, 0)
	c := insqclient.New(ts.URL, insqclient.Options{})
	sid, err := c.CreateSession(2, 1.6, false)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := insqclient.DialIngestTCP(context.Background(), ln.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := ing.Call(api.IngestBatch{
		WantResults: true,
		Updates:     []api.UpdateEntry{{Session: sid, X: 50, Y: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != api.CodeOK || len(ack.Results) != 1 || len(ack.Results[0].KNN) != 2 {
		t.Fatalf("tcp ack: %+v", ack)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRemoveOutOfRangeID: removing a plane object id no object ever had,
// including the three largest int64s (where the index once wrapped onto a
// super-triangle corner and panicked), answers 404 over HTTP and
// unknown_object over a raw TCP ingest connection, and the server keeps
// serving both afterwards.
func TestRemoveOutOfRangeID(t *testing.T) {
	ts, ln, _ := newIngestServer(t, 0)
	c := insqclient.New(ts.URL, insqclient.Options{})
	sid, err := c.CreateSession(2, 1.6, false)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := insqclient.DialIngestTCP(context.Background(), ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for _, id := range []uint64{math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64, math.MaxUint64} {
		if code := doDelete(t, fmt.Sprintf("%s/v1/objects/%d", ts.URL, id)); code != http.StatusNotFound {
			t.Fatalf("DELETE /v1/objects/%d: status %d, want 404", id, code)
		}
		ack, err := ing.Call(api.IngestBatch{Mutations: []index.Mutation{{ID: int(id)}}})
		if err != nil || ack.Code != api.CodeUnknownObject {
			t.Fatalf("ingest remove %d: ack %+v, err %v, want unknown_object", id, ack, err)
		}
	}
	ack, err := ing.Call(api.IngestBatch{WantResults: true, Updates: []api.UpdateEntry{{Session: sid, X: 50, Y: 50}}})
	if err != nil || ack.Code != api.CodeOK || len(ack.Results) != 1 || len(ack.Results[0].KNN) != 2 {
		t.Fatalf("update after the refused removals: ack %+v, err %v", ack, err)
	}
	if st, err := c.Stats(); err != nil || st.Epoch != 0 {
		t.Fatalf("stats after the refused removals: epoch %d, err %v", st.Epoch, err)
	}
}

// TestIngestRejectsInvalidPositions: positions the session's space does not
// have answer bad_request per entry over binary ingest, whose float codec
// carries any bit pattern: a plane point with a NaN or infinite coordinate,
// a network position on an edge the graph lacks. A valid update in the same
// frame still answers.
func TestIngestRejectsInvalidPositions(t *testing.T) {
	ts, ln, _ := newIngestServer(t, 0)
	c := insqclient.New(ts.URL, insqclient.Options{})
	sid, err := c.CreateSession(3, 1.6, false)
	if err != nil {
		t.Fatal(err)
	}
	nsid, err := c.CreateSession(2, 1.6, true)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := insqclient.DialIngestTCP(context.Background(), ln.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	ack, err := ing.Call(api.IngestBatch{
		WantResults: true,
		Updates: []api.UpdateEntry{
			{Session: sid, X: math.NaN(), Y: 1},
			{Session: sid, X: 1, Y: math.Inf(-1)},
			{Session: sid, X: 100, Y: 100},
		},
		NetworkUpdates: []api.NetworkUpdateEntry{{Session: nsid, U: 0, V: 63, T: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Results) != 4 {
		t.Fatalf("ack: %+v", ack)
	}
	for i, want := range []api.ErrorCode{api.CodeBadRequest, api.CodeBadRequest, api.CodeOK, api.CodeBadRequest} {
		if r := ack.Results[i]; r.Code != want || (want == api.CodeOK) != (len(r.KNN) > 0) {
			t.Errorf("entry %d: %+v, want code %s", i, r, want)
		}
	}
}

// TestIngestPipelinedCoalesce sends a pipelined burst through the raw
// listener under a wide coalesce window and checks that the server
// merged frames into fewer engine batches (the coalesce counters are the
// observable).
func TestIngestPipelinedCoalesce(t *testing.T) {
	ts, ln, _ := newIngestServer(t, 50*time.Millisecond)
	c := insqclient.New(ts.URL, insqclient.Options{})
	sid, err := c.CreateSession(3, 1.6, false)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 16
	ing, err := insqclient.DialIngestTCP(context.Background(), ln.Addr().String(), frames)
	if err != nil {
		t.Fatal(err)
	}
	// The first frame is deliberately heavy (many entries for one
	// session): while the pump applies it, the small frames behind it
	// queue up and the next drain must merge them — coalescing from
	// natural backpressure, no timing luck required.
	heavy := make([]api.UpdateEntry, 2048)
	for i := range heavy {
		heavy[i] = api.UpdateEntry{Session: sid, X: float64(i % 97), Y: float64(i % 89)}
	}
	if _, err := ing.Send(api.IngestBatch{Updates: heavy}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < frames; i++ {
		if _, err := ing.Send(api.IngestBatch{
			Updates: []api.UpdateEntry{{Session: sid, X: float64(i), Y: float64(i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var seq uint64
	for i := 0; i < frames; i++ {
		ack, ok := <-ing.Acks()
		if !ok {
			t.Fatalf("ack stream ended early: %v", ing.Err())
		}
		want := 1
		if i == 0 {
			want = len(heavy)
		}
		if ack.Code != api.CodeOK || ack.Applied != want {
			t.Fatalf("ack %d: %+v", i, ack)
		}
		if ack.Seq <= seq {
			t.Fatalf("acks out of order: %d after %d", ack.Seq, seq)
		}
		seq = ack.Seq
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.FramesTotal != frames {
		t.Fatalf("ingest stats: %+v", st.Ingest)
	}
	if st.Ingest.CoalescedBatches == 0 || st.Ingest.Batches >= st.Ingest.FramesTotal {
		t.Fatalf("no coalescing observed: %+v", st.Ingest)
	}
	if st.Ingest.CoalesceFactor <= 1 {
		t.Fatalf("coalesce factor %v, want > 1", st.Ingest.CoalesceFactor)
	}
}

// TestIngestBadFrame: a corrupt frame is acked with bad_frame, then the
// server drops the connection (framing is unrecoverable).
func TestIngestBadFrame(t *testing.T) {
	_, ln, _ := newIngestServer(t, 0)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(api.ClientMagic)); err != nil {
		t.Fatal(err)
	}
	magic := make([]byte, len(api.ServerMagic))
	if _, err := io.ReadFull(conn, magic); err != nil {
		t.Fatal(err)
	}
	if string(magic) != api.ServerMagic {
		t.Fatalf("server magic %q", magic)
	}
	// A frame whose CRC does not match its payload.
	bad := make([]byte, 12)
	binary.LittleEndian.PutUint32(bad[0:4], 4)          // length 4
	binary.LittleEndian.PutUint32(bad[4:8], 0xdeadbeef) // wrong crc
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	br := newFrameReader(conn)
	ack := readAck(t, br)
	if ack.Code != api.CodeBadFrame {
		t.Fatalf("ack code %s, want bad_frame", ack.Code)
	}
	if _, err := readFrame(br); err == nil {
		t.Fatal("connection survived a bad frame")
	}
}

// TestIngestNotReady: frames against a recovering server are acked
// unavailable (the TCP equivalent of the HTTP 503 gate), and the HTTP
// dial itself is refused with a transient coded error.
func TestIngestNotReady(t *testing.T) {
	hs := server.NewPending(server.Options{})
	ts := httptest.NewServer(hs.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go hs.ServeIngest(ln)

	c := insqclient.New(ts.URL, insqclient.Options{})
	if _, err := c.DialIngest(context.Background(), 1); err == nil {
		t.Fatal("HTTP dial succeeded against a recovering server")
	} else {
		var ae *insqclient.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || !ae.Transient() {
			t.Fatalf("dial error: %v", err)
		}
	}

	ing, err := insqclient.DialIngestTCP(context.Background(), ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	ack, err := ing.Call(api.IngestBatch{
		Updates: []api.UpdateEntry{{Session: 1, X: 0, Y: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != api.CodeUnavailable {
		t.Fatalf("ack code %s, want unavailable", ack.Code)
	}
}

// TestIngestDifferential is the protocol-equivalence acceptance test:
// the same operation sequence driven through the JSON endpoints of one
// server and the binary ingest stream of an identical second server must
// produce identical update results, identical assigned object ids,
// identical push-stream deltas and identical final engine state. Run
// with -race.
func TestIngestDifferential(t *testing.T) {
	jsonTS, _, _ := newIngestServer(t, time.Millisecond)
	binTS, _, _ := newIngestServer(t, time.Millisecond)
	jc := insqclient.New(jsonTS.URL, insqclient.Options{})
	bc := insqclient.New(binTS.URL, insqclient.Options{})

	// Identical session sets: three plane, one network, on each server.
	var jsids, bsids []uint64
	for i := 0; i < 3; i++ {
		js, err := jc.CreateSession(3, 1.6, false)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := bc.CreateSession(3, 1.6, false)
		if err != nil {
			t.Fatal(err)
		}
		jsids, bsids = append(jsids, js), append(bsids, bs)
	}
	jnet, err := jc.CreateSession(2, 1.6, true)
	if err != nil {
		t.Fatal(err)
	}
	bnet, err := bc.CreateSession(2, 1.6, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jsids, bsids) || jnet != bnet {
		t.Fatalf("session ids diverged: %v/%d vs %v/%d", jsids, jnet, bsids, bnet)
	}

	// Park session 1 at a fixed spot, then subscribe its push stream on
	// both servers. It never moves again: every event it receives from
	// here on is a "data" push caused by a mutation near its position.
	if _, err := jc.Update([]api.UpdateEntry{{Session: jsids[0], X: 100, Y: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Update([]api.UpdateEntry{{Session: bsids[0], X: 100, Y: 100}}); err != nil {
		t.Fatal(err)
	}
	jEvents := make(chan api.SessionEvent, 64)
	bEvents := make(chan api.SessionEvent, 64)
	jStop, err := jc.Subscribe([]uint64{jsids[0]}, func(ev api.SessionEvent) { jEvents <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer jStop()
	bStop, err := bc.Subscribe([]uint64{bsids[0]}, func(ev api.SessionEvent) { bEvents <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer bStop()
	expectEventPair(t, jEvents, bEvents, "snapshot")

	ing, err := bc.DialIngest(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	compareUpdate := func(t *testing.T, jr *api.UpdateResponse, ack api.IngestAck) {
		t.Helper()
		if ack.Code != api.CodeOK {
			t.Fatalf("binary ack not OK: %+v", ack)
		}
		if len(jr.Results) != len(ack.Results) {
			t.Fatalf("result count: json %d, binary %d", len(jr.Results), len(ack.Results))
		}
		for i, je := range jr.Results {
			be := ack.Results[i]
			jcode := je.Code
			if je.Error == "" {
				jcode = api.CodeOK
			}
			if je.Session != be.Session || jcode != be.Code || !reflect.DeepEqual(je.KNN, be.KNN) {
				t.Fatalf("entry %d diverged:\n json   %+v\n binary %+v", i, je, be)
			}
		}
	}

	var insertedIDs []int
	for step := 0; step < 15; step++ {
		// Plane updates: the non-subscribed sessions move in lockstep on
		// both paths (the subscriber stays parked).
		entries := make([]api.UpdateEntry, 0, len(jsids)-1)
		for i, sid := range jsids[1:] {
			entries = append(entries, api.UpdateEntry{
				Session: sid,
				X:       100 + float64(step*40+i*13),
				Y:       100 + float64(step*25+i*7),
			})
		}
		jr, err := jc.Update(entries)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := ing.Call(api.IngestBatch{Updates: entries, WantResults: true})
		if err != nil {
			t.Fatal(err)
		}
		compareUpdate(t, jr, ack)

		// Network update: park the network session at a vertex position.
		v := (step * 3) % 60
		nentries := []api.NetworkUpdateEntry{{Session: jnet, U: v, V: v}}
		jnr, err := jc.NetworkUpdate(nentries)
		if err != nil {
			t.Fatal(err)
		}
		nack, err := ing.Call(api.IngestBatch{NetworkUpdates: nentries, WantResults: true})
		if err != nil {
			t.Fatal(err)
		}
		compareUpdate(t, jnr, nack)

		switch step % 5 {
		case 2:
			// Insert right next to the parked subscriber so the push fires.
			x := 100.1 + float64(step)/100
			jid, err := jc.AddObject(x, x)
			if err != nil {
				t.Fatal(err)
			}
			mack, err := ing.Call(api.IngestBatch{
				WantResults: true,
				Mutations:   []index.Mutation{{Insert: true, P: geom.Pt(x, x)}},
			})
			if err != nil || mack.Code != api.CodeOK {
				t.Fatalf("binary insert: %+v, err %v", mack, err)
			}
			if len(mack.MutationIDs) != 1 || mack.MutationIDs[0] != jid {
				t.Fatalf("assigned ids diverged: json %d, binary %v", jid, mack.MutationIDs)
			}
			insertedIDs = append(insertedIDs, jid)
			expectEventPair(t, jEvents, bEvents, "data")
		case 4:
			if len(insertedIDs) == 0 {
				break
			}
			id := insertedIDs[0]
			insertedIDs = insertedIDs[1:]
			if err := jc.RemoveObject(id); err != nil {
				t.Fatal(err)
			}
			mack, err := ing.Call(api.IngestBatch{
				Mutations: []index.Mutation{{ID: id}},
			})
			if err != nil || mack.Code != api.CodeOK {
				t.Fatalf("binary remove: %+v, err %v", mack, err)
			}
			expectEventPair(t, jEvents, bEvents, "data")
		}
	}

	// Final state: object counts and a last full-result probe must agree.
	jst, err := jc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	bst, err := bc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if jst.Objects != bst.Objects || jst.NetworkObjects != bst.NetworkObjects || jst.Sessions != bst.Sessions {
		t.Fatalf("final state diverged: json %d/%d/%d, binary %d/%d/%d",
			jst.Objects, jst.NetworkObjects, jst.Sessions,
			bst.Objects, bst.NetworkObjects, bst.Sessions)
	}
	if bst.Ingest == nil || bst.Ingest.FramesTotal == 0 {
		t.Fatalf("binary server ingest stats: %+v", bst.Ingest)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// expectEventPair waits for one push event on each server and asserts
// the two are identical (cause, result set, delta).
func expectEventPair(t *testing.T, j, b <-chan api.SessionEvent, cause string) {
	t.Helper()
	wait := func(name string, ch <-chan api.SessionEvent) api.SessionEvent {
		select {
		case ev := <-ch:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no %q event from the %s server within 5s", cause, name)
			return api.SessionEvent{}
		}
	}
	je := wait("json", j)
	be := wait("binary", b)
	if je.Cause != cause || be.Cause != cause {
		t.Fatalf("causes: json %q, binary %q, want %q", je.Cause, be.Cause, cause)
	}
	if !reflect.DeepEqual(je.KNN, be.KNN) || !reflect.DeepEqual(je.Added, be.Added) || !reflect.DeepEqual(je.Removed, be.Removed) {
		t.Fatalf("push deltas diverged:\n json   %+v\n binary %+v", je, be)
	}
}

// Minimal frame reading for the raw-protocol tests.
func newFrameReader(conn net.Conn) *frameReader { return &frameReader{conn: conn} }

type frameReader struct {
	conn net.Conn
	buf  []byte
}

func readFrame(fr *frameReader) ([]byte, error) {
	hdr := make([]byte, 8)
	fr.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(fr.conn, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > api.MaxFramePayload {
		return nil, fmt.Errorf("bad frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func readAck(t *testing.T, fr *frameReader) api.IngestAck {
	t.Helper()
	payload, err := readFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := api.DecodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}
