package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stream"
)

// roundTrip encodes v, decodes it into a fresh value of the same type, and
// fails unless the result is deeply equal — the wire types must survive
// the JSON boundary without loss.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(data, out.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	got := out.Elem().Interface()
	if !reflect.DeepEqual(got, v) {
		t.Errorf("%T round trip:\n got %+v\nwant %+v", v, got, v)
	}
	return got
}

func TestRoundTripAllWireTypes(t *testing.T) {
	roundTrip(t, CreateSessionRequest{K: 5, Rho: 1.6})
	roundTrip(t, CreateSessionResponse{Session: 42})
	roundTrip(t, UpdateRequest{Updates: []UpdateEntry{
		{Session: 1, X: 10.5, Y: -3.25},
		{Session: 2, X: 0, Y: 0},
	}})
	roundTrip(t, UpdateResponse{Results: []UpdateResultEntry{
		{Session: 1, KNN: []int{3, 1, 2}},
		{Session: 2, Error: "engine: unknown session: 2"},
	}})
	roundTrip(t, ObjectRequest{X: 1.5, Y: 2.5})
	roundTrip(t, ObjectResponse{ID: 7})
	roundTrip(t, ErrorResponse{Error: "bad request"})
	roundTrip(t, LatencyStats{Count: 10, MeanUS: 1.5, P50US: 1, P95US: 4, P99US: 9, MaxUS: 20})
	roundTrip(t, SessionEvent{
		Session: 9, Seq: 3, Epoch: 17, Cause: "data",
		KNN: []int{4, 8, 2}, Added: []int{2}, Removed: []int{6},
	})
	roundTrip(t, StreamStats{
		Subscribers: 3, WatchedSessions: 2,
		Published: 100, Delivered: 90, Coalesced: 7, Dropped: 3,
	})
	roundTrip(t, StatsResponse{
		Shards: 4, Sessions: 100, Objects: 5000, Epoch: 12, Snapshots: 2,
		Updates: 100000, UptimeSec: 12.5, UpdatesPerSec: 8000,
		Latency: LatencyStats{Count: 100000, MeanUS: 2, P50US: 1, P95US: 5, P99US: 9, MaxUS: 100},
		Counters: metrics.Counters{
			Timestamps: 100000, Validations: 99000, Invalidations: 5000,
			Recomputations: 1000, ObjectsShipped: 9000, DistanceCalcs: 123456,
			DijkstraRuns: 0, EdgeRelaxations: 0, NodeVisits: 777,
		},
		Stream: StreamStats{Subscribers: 1, Published: 42, Delivered: 40, Coalesced: 2},
	})
}

// TestUpdateEntryOmissions pins the wire shape: empty kNN sets and error
// strings are omitted, so clients can treat their presence as meaningful.
func TestUpdateEntryOmissions(t *testing.T) {
	data, err := json.Marshal(UpdateResultEntry{Session: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"session":3}` {
		t.Errorf("empty entry = %s, want {\"session\":3}", data)
	}
	data, err = json.Marshal(UpdateResultEntry{Session: 3, Error: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"session":3,"error":"boom"}` {
		t.Errorf("error entry = %s", data)
	}
}

func TestNewLocationUpdates(t *testing.T) {
	entries := []UpdateEntry{{Session: 9, X: 1, Y: 2}, {Session: 10, X: 3, Y: 4}}
	batch := NewLocationUpdates(entries)
	if len(batch) != 2 {
		t.Fatalf("len = %d", len(batch))
	}
	if batch[0].Session != 9 || batch[0].Pos != geom.Pt(1, 2) {
		t.Errorf("batch[0] = %+v", batch[0])
	}
	if batch[1].Session != 10 || batch[1].Pos != geom.Pt(3, 4) {
		t.Errorf("batch[1] = %+v", batch[1])
	}
	if got := NewLocationUpdates(nil); len(got) != 0 {
		t.Errorf("nil entries -> %v", got)
	}
}

// TestNewUpdateResponseErrorShape: a per-session error must surface as the
// error string alone — never alongside a kNN set.
func TestNewUpdateResponseErrorShape(t *testing.T) {
	results := []engine.UpdateResult{
		{Session: 1, KNN: []int{5, 6}},
		{Session: 2, KNN: []int{7}, Err: errors.New("stale")},
		{Session: 3, Err: engine.ErrUnknownSession},
	}
	resp := NewUpdateResponse(results)
	if len(resp.Results) != 3 {
		t.Fatalf("len = %d", len(resp.Results))
	}
	if r := resp.Results[0]; r.Session != 1 || r.Error != "" || !reflect.DeepEqual(r.KNN, []int{5, 6}) {
		t.Errorf("results[0] = %+v", r)
	}
	if r := resp.Results[1]; r.Error != "stale" || r.KNN != nil {
		t.Errorf("results[1] must drop the kNN set on error: %+v", r)
	}
	if r := resp.Results[2]; r.Error != engine.ErrUnknownSession.Error() || r.KNN != nil {
		t.Errorf("results[2] = %+v", r)
	}
}

func TestNewLatencyStatsUnits(t *testing.T) {
	s := obs.LatencySummary{
		Count: 4,
		Mean:  1500 * time.Nanosecond,
		P50:   time.Microsecond,
		P95:   2 * time.Microsecond,
		P99:   3 * time.Microsecond,
		Max:   time.Millisecond,
	}
	got := NewLatencyStats(s)
	want := LatencyStats{Count: 4, MeanUS: 1.5, P50US: 1, P95US: 2, P99US: 3, MaxUS: 1000}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestSessionEventShapes pins the push wire shape: a no-result event is
// just session/seq/epoch/cause (empty sets omitted, so their presence is
// meaningful), and NewSessionEvent maps every broker field.
func TestSessionEventShapes(t *testing.T) {
	data, err := json.Marshal(SessionEvent{Session: 5, Seq: 2, Cause: "close"})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"session":5,"seq":2,"epoch":0,"cause":"close"}` {
		t.Errorf("close event = %s", data)
	}

	ev := stream.Event{
		Session: 12, Seq: 4, Epoch: 9, Cause: stream.CauseData,
		KNN: []int{1, 2, 3}, Added: []int{3}, Removed: []int{7},
	}
	got := NewSessionEvent(ev)
	want := SessionEvent{
		Session: 12, Seq: 4, Epoch: 9, Cause: "data",
		KNN: []int{1, 2, 3}, Added: []int{3}, Removed: []int{7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NewSessionEvent = %+v, want %+v", got, want)
	}
}

// TestNewStatsResponse maps every engine stats field, including the
// snapshot-store fields of the shared-index architecture.
func TestNewStatsResponse(t *testing.T) {
	st := engine.Stats{
		Shards:        8,
		Sessions:      1000,
		Objects:       20000,
		Epoch:         17,
		Snapshots:     3,
		Updates:       500000,
		Uptime:        2 * time.Second,
		UpdatesPerSec: 250000,
		Counters:      metrics.Counters{Timestamps: 500000, Recomputations: 100},
		Latency:       obs.LatencySummary{Count: 500000, Mean: time.Microsecond},
		Stream:        stream.Stats{Subscribers: 2, WatchedSessions: 5, Published: 10, Delivered: 8, Coalesced: 1, Dropped: 1},
	}
	got := NewStatsResponse(st)
	if got.Shards != 8 || got.Sessions != 1000 || got.Objects != 20000 ||
		got.Epoch != 17 || got.Snapshots != 3 || got.Updates != 500000 ||
		got.UptimeSec != 2 || got.UpdatesPerSec != 250000 ||
		got.Counters.Recomputations != 100 || got.Latency.Count != 500000 {
		t.Errorf("got %+v", got)
	}
	if got.Stream != (StreamStats{Subscribers: 2, WatchedSessions: 5, Published: 10, Delivered: 8, Coalesced: 1, Dropped: 1}) {
		t.Errorf("stream stats = %+v", got.Stream)
	}
}
