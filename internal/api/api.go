// Package api defines the wire surface of the insqd server — the JSON
// types of the HTTP interface, the binary ingest frame codec, and the
// shared error table both speak — used by the server (internal/server,
// cmd/insqd) and its client (internal/client).
//
// Endpoints:
//
//	POST   /v1/sessions                 CreateSessionRequest  -> CreateSessionResponse
//	DELETE /v1/sessions/{id}                                  -> 204
//	GET    /v1/sessions/{id}/events                           -> SSE stream of SessionEvent
//	GET    /v1/events?sessions=1,2,...                        -> SSE stream (all sessions when the parameter is omitted)
//	POST   /v1/update                   UpdateRequest         -> UpdateResponse
//	POST   /v1/network/update           NetworkUpdateRequest  -> UpdateResponse
//	POST   /v1/objects                  ObjectRequest         -> ObjectResponse
//	DELETE /v1/objects/{id}                                   -> 204
//	POST   /v1/network/objects          NetworkObjectRequest  -> ObjectResponse
//	DELETE /v1/network/objects/{vertex}                       -> 204
//	POST   /v1/ingest                   binary frame stream   -> binary ack stream (see ingest.go)
//	GET    /v1/stats                                          -> StatsResponse
//	GET    /healthz                                           -> 200 "ok" (liveness; answers even before ready)
//	GET    /readyz                                            -> 200 "ready" | 503 ErrorResponse (readiness incl. degraded mode)
//
// Sessions come in two flavors: plane sessions (the default) move in the
// 2D Euclidean space and are fed through /v1/update; network sessions
// (CreateSessionRequest.Network) move along the road network and are fed
// through /v1/network/update with edge positions. Network data objects
// are identified by the vertex they sit on, so /v1/network/objects echoes
// the vertex as the object id.
//
// The /events endpoints are Server-Sent Events streams: each frame's SSE
// event name is the SessionEvent cause ("snapshot", "move", "data",
// "close", "bye") and its data line is the SessionEvent JSON. A stream
// opens with one snapshot per explicitly named session, then carries
// result deltas pushed by the engine; "bye" is the final frame of a
// graceful server shutdown.
//
// /v1/ingest is the streaming fast path: the request body is an open-
// ended sequence of length-prefixed CRC32C batch frames (chunked upload
// over a persistent connection), the response streams back one ack frame
// per batch. The same protocol runs over a raw TCP connection when the
// server enables -ingest-addr. See ingest.go for the frame layout and
// codec.
//
// Errors are ErrorResponse bodies with the matching HTTP status and a
// machine-readable code from the shared error table (errors.go); ingest
// acks carry the same codes as status bytes. The codes:
//
//	bad_request too_large unknown_session unknown_object site_exists
//	last_site no_network no_plane_index out_of_bounds degraded
//	overloaded expired unavailable internal bad_frame
//
// degraded, overloaded and unavailable are transient (JSON responses
// attach Retry-After; ingest clients back off and resend); the rest are
// request errors that retrying cannot fix.
package api

import (
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/stream"
	"repro/internal/wal"
)

// CreateSessionRequest registers one moving kNN query session.
type CreateSessionRequest struct {
	// K is the number of nearest neighbors to maintain.
	K int `json:"k"`
	// Rho is the prefetch ratio (>= 1); 0 defaults to 1.6.
	Rho float64 `json:"rho,omitempty"`
	// Network selects a road-network session (fed via /v1/network/update)
	// instead of a plane session.
	Network bool `json:"network,omitempty"`
}

// CreateSessionResponse returns the id to use in update batches.
type CreateSessionResponse struct {
	Session uint64 `json:"session"`
}

// UpdateEntry is one session's location update within a batch.
type UpdateEntry struct {
	Session uint64  `json:"session"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
}

// UpdateRequest carries location updates for many sessions in one request.
type UpdateRequest struct {
	Updates []UpdateEntry `json:"updates"`
}

// UpdateResultEntry is the outcome for one update: the current kNN object
// ids, or the per-session error (with its machine-readable code from the
// shared error table).
type UpdateResultEntry struct {
	Session uint64    `json:"session"`
	KNN     []int     `json:"knn,omitempty"`
	Error   string    `json:"error,omitempty"`
	Code    ErrorCode `json:"code,omitempty"`
}

// UpdateResponse parallels UpdateRequest.Updates.
type UpdateResponse struct {
	Results []UpdateResultEntry `json:"results"`
}

// NewLocationUpdates converts wire entries to engine batch input — the
// request-direction counterpart of NewUpdateResponse, shared by the server
// and in-process clients so the two mappings cannot drift.
func NewLocationUpdates(entries []UpdateEntry) []engine.LocationUpdate {
	batch := make([]engine.LocationUpdate, len(entries))
	for i, u := range entries {
		batch[i] = engine.LocationUpdate{Session: engine.SessionID(u.Session), Pos: geom.Pt(u.X, u.Y)}
	}
	return batch
}

// NetworkUpdateEntry is one network session's location update: a position
// on edge (U,V) at fraction T from U (U == V or T == 0 means exactly at
// vertex U).
type NetworkUpdateEntry struct {
	Session uint64  `json:"session"`
	U       int     `json:"u"`
	V       int     `json:"v"`
	T       float64 `json:"t"`
}

// NetworkUpdateRequest carries network location updates for many sessions
// in one request; responses reuse UpdateResponse.
type NetworkUpdateRequest struct {
	Updates []NetworkUpdateEntry `json:"updates"`
}

// NewNetworkLocationUpdates converts wire entries to engine batch input,
// shared by the server and in-process clients so the mappings cannot
// drift.
func NewNetworkLocationUpdates(entries []NetworkUpdateEntry) []engine.NetworkLocationUpdate {
	batch := make([]engine.NetworkLocationUpdate, len(entries))
	for i, u := range entries {
		batch[i] = engine.NetworkLocationUpdate{
			Session: engine.SessionID(u.Session),
			Pos:     roadnet.Position{U: u.U, V: u.V, T: u.T},
		}
	}
	return batch
}

// NewUpdateResponse converts engine batch results to wire form, the one
// canonical mapping shared by the server and in-process clients: on a
// per-session error the entry carries the error string and no kNN set.
func NewUpdateResponse(results []engine.UpdateResult) UpdateResponse {
	resp := UpdateResponse{Results: make([]UpdateResultEntry, len(results))}
	for i, r := range results {
		entry := UpdateResultEntry{Session: uint64(r.Session), KNN: r.KNN}
		if r.Err != nil {
			entry.Error = r.Err.Error()
			entry.Code = Classify(r.Err).Code
			entry.KNN = nil
		}
		resp.Results[i] = entry
	}
	return resp
}

// SessionEvent is one push notification on the /events SSE streams: a
// session's current kNN set plus the membership delta against the
// previously pushed result. Seq is strictly increasing per session; a gap
// means intermediate events were coalesced or dropped, and the full KNN
// field re-baselines the consumer either way.
type SessionEvent struct {
	Session uint64 `json:"session"`
	Seq     uint64 `json:"seq"`
	Epoch   uint64 `json:"epoch"`
	// Cause is "snapshot" (baseline at subscribe time), "move" (the
	// session's own location update changed the result), "data" (an object
	// insert/delete invalidated it and the server recomputed eagerly),
	// "close" (session ended) or "bye" (server shutting down).
	Cause   string `json:"cause"`
	KNN     []int  `json:"knn,omitempty"`
	Added   []int  `json:"added,omitempty"`
	Removed []int  `json:"removed,omitempty"`
}

// NewSessionEvent converts a broker event to wire form — the one mapping
// shared by the SSE server and in-process consumers.
func NewSessionEvent(ev stream.Event) SessionEvent {
	return SessionEvent{
		Session: ev.Session,
		Seq:     ev.Seq,
		Epoch:   ev.Epoch,
		Cause:   string(ev.Cause),
		KNN:     ev.KNN,
		Added:   ev.Added,
		Removed: ev.Removed,
	}
}

// ObjectRequest inserts a plane data object.
type ObjectRequest struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// NetworkObjectRequest inserts a network data object at a road-network
// vertex.
type NetworkObjectRequest struct {
	Vertex int `json:"vertex"`
}

// ObjectResponse returns the inserted object's id (the vertex itself for
// network objects).
type ObjectResponse struct {
	ID int `json:"id"`
}

// LatencyStats is a latency summary in microseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// NewLatencyStats converts an engine latency summary to wire form.
func NewLatencyStats(s obs.LatencySummary) LatencyStats {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return LatencyStats{
		Count:  s.Count,
		MeanUS: us(s.Mean),
		P50US:  us(s.P50),
		P95US:  us(s.P95),
		P99US:  us(s.P99),
		MaxUS:  us(s.Max),
	}
}

// StreamStats is the push broker's fan-out state: live subscribers and
// the counters that make the backpressure policy observable (coalesced =
// newer events merged into a pending one, dropped = pending events
// evicted by a full queue).
type StreamStats struct {
	Subscribers     int    `json:"subscribers"`
	WatchedSessions int    `json:"watched_sessions"`
	Published       uint64 `json:"published"`
	Delivered       uint64 `json:"delivered"`
	Coalesced       uint64 `json:"coalesced"`
	Dropped         uint64 `json:"dropped"`
}

// NewStreamStats converts broker stats to wire form.
func NewStreamStats(s stream.Stats) StreamStats {
	return StreamStats{
		Subscribers:     s.Subscribers,
		WatchedSessions: s.WatchedSessions,
		Published:       s.Published,
		Delivered:       s.Delivered,
		Coalesced:       s.Coalesced,
		Dropped:         s.Dropped,
	}
}

// WALStats is the durability pipeline's counter snapshot: the write-ahead
// log's append/fsync side, the checkpoint lifecycle, and what the last
// recovery replayed. Present in StatsResponse only when the server runs
// with -data-dir.
type WALStats struct {
	Policy            string  `json:"policy"`
	AppendedBatches   uint64  `json:"appended_batches"`
	AppendedMutations uint64  `json:"appended_mutations"`
	AppendedBytes     uint64  `json:"appended_bytes"`
	Fsyncs            uint64  `json:"fsyncs"`
	FsyncTotalMS      float64 `json:"fsync_total_ms"`
	Segments          int     `json:"segments"`
	PrunedSegments    uint64  `json:"pruned_segments"`
	Checkpoints       uint64  `json:"checkpoints"`
	CheckpointEpoch   uint64  `json:"checkpoint_epoch"`
	CheckpointBytes   uint64  `json:"checkpoint_bytes"`
	ReplayedBatches   uint64  `json:"replayed_batches"`
	ReplayedMutations uint64  `json:"replayed_mutations"`
	TruncatedBytes    int64   `json:"truncated_bytes"`
	RecoveredEpoch    uint64  `json:"recovered_epoch"`
	RecoveryMS        float64 `json:"recovery_ms"`
	// Degraded is true while the WAL is in read-only degraded mode (appends
	// rejected, probe goroutine trying to heal); DegradeEvents/HealEvents
	// count the round trips.
	Degraded      bool   `json:"degraded"`
	DegradeEvents uint64 `json:"degrade_events"`
	HealEvents    uint64 `json:"heal_events"`
}

// NewWALStats converts a durability snapshot to wire form.
func NewWALStats(s wal.Stats) WALStats {
	return WALStats{
		Policy:            string(s.Policy),
		AppendedBatches:   s.AppendedBatches,
		AppendedMutations: s.AppendedMutations,
		AppendedBytes:     s.AppendedBytes,
		Fsyncs:            s.Fsyncs,
		FsyncTotalMS:      float64(s.FsyncTotal.Nanoseconds()) / 1e6,
		Segments:          s.Segments,
		PrunedSegments:    s.PrunedSegments,
		Checkpoints:       s.Checkpoints,
		CheckpointEpoch:   s.CheckpointEpoch,
		CheckpointBytes:   s.CheckpointBytes,
		ReplayedBatches:   s.ReplayedBatches,
		ReplayedMutations: s.ReplayedMutations,
		TruncatedBytes:    s.TruncatedBytes,
		RecoveredEpoch:    s.RecoveredEpoch,
		RecoveryMS:        float64(s.Recovery.Nanoseconds()) / 1e6,
		Degraded:          s.Degraded,
		DegradeEvents:     s.DegradeEvents,
		HealEvents:        s.HealEvents,
	}
}

// StatsResponse is the engine snapshot served by GET /v1/stats. Snapshots
// is the number of distinct index versions the store and the shards hold:
// 1 when every shard has moved to the current one, more while a lagging
// shard still holds an old version.
type StatsResponse struct {
	Shards         int    `json:"shards"`
	Sessions       int    `json:"sessions"`
	Objects        int    `json:"objects"`
	NetworkObjects int    `json:"network_objects"`
	Epoch          uint64 `json:"epoch"`
	Snapshots      int    `json:"snapshots"`
	Updates        uint64 `json:"updates"`
	// EpochPublishUS is the mean wall time of publishing one data-update
	// epoch; IndexNodes/IndexNodesCopied expose how much of the index the
	// latest epoch shared with its predecessor (path-copying publication).
	EpochPublishUS   float64 `json:"epoch_publish_us"`
	IndexNodes       int     `json:"index_nodes"`
	IndexNodesCopied int     `json:"index_nodes_copied"`
	UptimeSec        float64 `json:"uptime_seconds"`
	UpdatesPerSec    float64 `json:"updates_per_sec"`
	// Degraded mirrors the durability layer's read-only mode (writes get
	// 503 while it is set); Shed counts update entries rejected by
	// admission control (429); Expired counts entries dropped because
	// their request deadline passed before apply.
	Degraded bool             `json:"degraded"`
	Shed     uint64           `json:"shed"`
	Expired  uint64           `json:"expired"`
	Latency  LatencyStats     `json:"latency"`
	Counters metrics.Counters `json:"counters"`
	Stream   StreamStats      `json:"stream"`
	// WAL is present only when the server runs with durability enabled.
	WAL *WALStats `json:"wal,omitempty"`
	// Ingest is present only when the server has handled binary ingest
	// streams; filled by the server (like Version), not the engine.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Version/GoVersion/Revision identify the serving build; filled by the
	// server (obs.Build), not the engine, and omitted by in-process
	// embedders that don't care.
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
}

// NewStatsResponse converts an engine snapshot to wire form.
func NewStatsResponse(st engine.Stats) StatsResponse {
	resp := StatsResponse{
		Shards:           st.Shards,
		Sessions:         st.Sessions,
		Objects:          st.Objects,
		NetworkObjects:   st.NetworkObjects,
		Epoch:            st.Epoch,
		Snapshots:        st.Snapshots,
		Updates:          st.Updates,
		EpochPublishUS:   st.EpochPublishUS,
		IndexNodes:       st.IndexNodes,
		IndexNodesCopied: st.IndexNodesCopied,
		UptimeSec:        st.Uptime.Seconds(),
		UpdatesPerSec:    st.UpdatesPerSec,
		Degraded:         st.Degraded,
		Shed:             st.Shed,
		Expired:          st.Expired,
		Latency:          NewLatencyStats(st.Latency),
		Counters:         st.Counters,
		Stream:           NewStreamStats(st.Stream),
	}
	if st.WAL != nil {
		ws := NewWALStats(*st.WAL)
		resp.WAL = &ws
	}
	return resp
}

// IngestStats is the binary ingest path's counter snapshot: frames and
// bytes over all streams, how well the coalescing pump merged pipelined
// frames into engine batches (Batches <= Frames; CoalesceFactor =
// Frames/Batches), and the live connection gauge.
type IngestStats struct {
	Connections      int     `json:"connections"`
	FramesTotal      uint64  `json:"frames_total"`
	Batches          uint64  `json:"batches"`
	CoalescedBatches uint64  `json:"coalesced_batches"`
	CoalesceFactor   float64 `json:"coalesce_factor"`
	BytesIn          uint64  `json:"bytes_in"`
	BytesOut         uint64  `json:"bytes_out"`
	Updates          uint64  `json:"updates"`
	Mutations        uint64  `json:"mutations"`
}

// ErrorResponse is the body of every non-2xx response: the human-readable
// error plus its machine-readable code from the shared error table.
type ErrorResponse struct {
	Error string    `json:"error"`
	Code  ErrorCode `json:"code,omitempty"`
}
