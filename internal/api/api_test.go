package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wal"
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

// TestRoundTripAllWireTypes: every wire type survives the JSON boundary.
// The stats fixture sets every field non-zero (a new stats field must be
// added to it), so the round trip proves each one reaches /v1/stats.
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
	roundTrip(t, SessionEvent{
		Session: 9, Seq: 3, Epoch: 17, Cause: "data",
		KNN: []int{4, 8, 2}, Added: []int{2}, Removed: []int{6},
	})

	stats := StatsResponse{
		Stats: engine.Stats{
			Shards: 4, Sessions: 100, Objects: 5000, NetworkObjects: 600,
			Epoch: 12, Snapshots: 2, EpochPublishUS: 31.5,
			IndexNodes: 900, IndexNodesCopied: 17, NetPages: 64, NetPagesCopied: 3,
			Updates: 100000, Shed: 5, Expired: 6, Degraded: true,
			Uptime: 12500 * time.Millisecond, UpdatesPerSec: 8000,
			Counters: metrics.Counters{
				Timestamps: 100000, Validations: 99000, Invalidations: 5000,
				Recomputations: 1000, ObjectsShipped: 9000, DistanceCalcs: 123456,
				DijkstraRuns: 40, EdgeRelaxations: 5000, NodeVisits: 777,
				AnchoredValidations: 30, AnchorBuilds: 8, AnchorTableHits: 2,
			},
			Latency: obs.LatencySummary{
				Count: 100000, Mean: 2 * time.Microsecond, P50: time.Microsecond,
				P95: 5 * time.Microsecond, P99: 9 * time.Microsecond, Max: 100 * time.Microsecond,
			},
			Stream: stream.Stats{
				Subscribers: 3, WatchedSessions: 2,
				Published: 100, Delivered: 90, Coalesced: 7, Dropped: 3,
			},
			WAL: &wal.Stats{
				Policy: wal.SyncAlways, AppendedBatches: 10, AppendedMutations: 80, AppendedBytes: 4096,
				Fsyncs: 10, FsyncTotal: 3 * time.Millisecond, Segments: 2, PrunedSegments: 1,
				Checkpoints: 3, CheckpointEpoch: 9, CheckpointBytes: 65536, CheckpointFailures: 1,
				ReplayedBatches: 4, ReplayedMutations: 32, TruncatedBytes: 17, RecoveredEpoch: 8,
				Recovery: 250 * time.Millisecond, Degraded: true, DegradeEvents: 2, HealEvents: 1,
			},
		},
		Ingest: &IngestStats{
			Connections: 1, FramesTotal: 50, Batches: 20, CoalescedBatches: 10, CoalesceFactor: 2.5,
			BytesIn: 9000, BytesOut: 800, Updates: 200, Mutations: 4,
		},
		Version: "v1", GoVersion: "go1.24", Revision: "abc123",
	}
	if zero := zeroFields(reflect.ValueOf(stats), ""); len(zero) > 0 {
		t.Errorf("the stats fixture leaves fields zero: %v", zero)
	}
	roundTrip(t, stats)

	// The durations go out as nanoseconds, and NetProjRebuilds not at all.
	stats.NetProjRebuilds = 7
	data, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		UptimeNS int64 `json:"uptime_ns"`
		Latency  struct {
			P50NS int64 `json:"p50_ns"`
		} `json:"latency"`
		WAL struct {
			RecoveryNS int64 `json:"recovery_ns"`
		} `json:"wal"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.UptimeNS != 12.5e9 || wire.Latency.P50NS != 1e3 || wire.WAL.RecoveryNS != 250e6 {
		t.Errorf("uptime_ns, latency.p50_ns, wal.recovery_ns = %+v; want 12.5e9, 1e3, 250e6", wire)
	}
	if strings.Contains(strings.ToLower(string(data)), "proj") {
		t.Errorf("NetProjRebuilds is on the wire: %s", data)
	}
}

// zeroFields lists the zero exported fields of a struct, recursing into
// nested structs and pointers; NetProjRebuilds, off the wire, is skipped.
func zeroFields(v reflect.Value, path string) []string {
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	var zero []string
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case f.Name == "NetProjRebuilds":
		case fv.IsZero():
			zero = append(zero, path+f.Name)
		case fv.Kind() == reflect.Struct, fv.Kind() == reflect.Pointer:
			zero = append(zero, zeroFields(fv, path+f.Name+".")...)
		}
	}
	return zero
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
