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
// /v1/stats has no wire types of its own: StatsResponse embeds
// engine.Stats, so each stats number is declared once, by the struct that
// owns it (engine.Stats, wal.Stats, stream.Stats, obs.LatencySummary), and
// their JSON tags are the wire keys. Durations serialise as integer
// nanoseconds (the *_ns keys).
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
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/stream"
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

// StatsResponse is the body of GET /v1/stats: the engine's own snapshot
// plus what only the server knows.
type StatsResponse struct {
	engine.Stats
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
