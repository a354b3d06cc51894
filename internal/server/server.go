// Package server implements the insqd serving frontend over one engine:
// the JSON HTTP API, the SSE push streams and the binary ingest fast
// path (ingest.go), shared by cmd/insqd and in-process embedders (the
// SERVE benchmark boots a real instance). The wire types and the error
// table both surfaces speak live in internal/api.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	insq "repro"
	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stream"
)

// Options configures a Server; the zero value is a plain JSON server
// with no observability, caching or timeouts.
type Options struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ (CPU, heap, mutex,
	// block profiles of the live serving process). Off by default —
	// profiles expose internals and cost cycles while sampling.
	Pprof bool
	// Obs enables /metrics, per-request trace IDs and decode-stage timing;
	// nil turns all of it off.
	Obs *obs.Pipeline
	// AccessLog, when non-nil, logs one line per request (method, path,
	// status, duration, trace).
	AccessLog *slog.Logger
	// RequestTimeout bounds each update/object mutation request (and each
	// coalesced ingest batch): the handler derives a deadline from it so
	// batches abandoned by their client are dropped at the shard instead
	// of executed into the void. 0 disables.
	RequestTimeout time.Duration
	// StatsTTL caches the merged /v1/stats snapshot: Engine.Stats fans a
	// message to every shard worker, so a scraper polling at 1s must not
	// perturb them per request. 0 disables caching.
	StatsTTL time.Duration
	// CoalesceWindow is how long the ingest pump waits for further frames
	// after one arrives before applying the merged engine batch; 0 merges
	// only frames already queued (no added latency). See ingest.go.
	CoalesceWindow time.Duration
}

// Server routes the insqd API onto one serving engine. The engine is
// safe for concurrent use, so handlers need no additional locking.
type Server struct {
	// e is nil until SetEngine; handlers only run after ready flips, whose
	// atomic store/load orders the engine write before any handler read.
	e     *insq.Engine
	ready atomic.Bool
	opts  Options

	statsMu    sync.Mutex
	statsAt    time.Time
	statsCache api.StatsResponse

	// ingest is the binary ingest path's counter set, shared by every
	// stream (HTTP and raw TCP) and surfaced in /v1/stats and /metrics.
	ingest ingestStats
}

// New returns a server already open for traffic — the in-process boot
// path (and tests), where the engine exists before the listener.
func New(e *insq.Engine, opts Options) *Server {
	s := NewPending(opts)
	s.SetEngine(e)
	return s
}

// NewPending returns a server that answers every request (except
// /healthz) with 503 + Retry-After until SetEngine runs — the insqd boot
// path, where the listener starts before WAL recovery finishes.
func NewPending(opts Options) *Server {
	s := &Server{opts: opts}
	if opts.Obs != nil {
		s.registerMetrics(opts.Obs.Registry())
	}
	return s
}

// SetEngine publishes the engine and opens the server for traffic.
func (s *Server) SetEngine(e *insq.Engine) {
	s.e = e
	s.ready.Store(true)
}

// registerMetrics exposes the ingest counters on the shared registry.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("insq_ingest_connections",
		"Open binary ingest streams (HTTP and raw TCP).",
		func() float64 { return float64(s.ingest.conns.Load()) })
	reg.CounterFunc("insq_ingest_frames_total",
		"Batch frames received on ingest streams.",
		func() float64 { return float64(s.ingest.frames.Load()) })
	reg.CounterFunc("insq_ingest_batches_total",
		"Engine batches the ingest pump applied (frames/batches = coalesce factor).",
		func() float64 { return float64(s.ingest.batches.Load()) })
	reg.CounterFunc("insq_ingest_coalesced_batches_total",
		"Frames merged into an already-pending engine batch by the coalescing pump.",
		func() float64 { return float64(s.ingest.coalesced.Load()) })
	reg.CounterFunc("insq_ingest_bytes_in_total",
		"Bytes received on ingest streams (frame headers + payloads).",
		func() float64 { return float64(s.ingest.bytesIn.Load()) })
	reg.CounterFunc("insq_ingest_bytes_out_total",
		"Ack bytes written on ingest streams.",
		func() float64 { return float64(s.ingest.bytesOut.Load()) })
}

// Handler builds the route table behind the readiness gate; tests mount
// it on httptest servers. /healthz answers before the gate: it is pure
// liveness (the process is up and serving HTTP), while /readyz and
// everything else reflect readiness.
func (s *Server) Handler() http.Handler {
	mux := s.routes()
	return s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				api.ErrorResponse{Error: "recovering: server not ready", Code: api.CodeUnavailable})
			return
		}
		mux.ServeHTTP(w, r)
	}))
}

// statusWriter captures the response status for the access log while
// staying transparent to SSE and ingest streaming: it forwards Flush and
// unwraps for http.NewResponseController's deadline control.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps the route table with per-request observability: a
// trace ID (minted here, returned in X-Trace-Id, threaded through the
// request context into the engine/store/WAL for slow-op attribution) and
// the opt-in access log. With neither observability nor access logging
// configured it returns next untouched — zero per-request cost.
func (s *Server) instrument(next http.Handler) http.Handler {
	if s.opts.Obs == nil && s.opts.AccessLog == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := obs.NewTraceID()
		w.Header().Set("X-Trace-Id", trace)
		r = r.WithContext(obs.WithTraceID(r.Context(), trace))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		if s.opts.AccessLog != nil {
			s.opts.AccessLog.Info("access",
				"method", r.Method, "path", r.URL.Path,
				"status", sw.code,
				"dur_ms", float64(time.Since(start).Nanoseconds())/1e6,
				"trace", trace)
		}
	})
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.createSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.closeSession)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.sessionEvents)
	mux.HandleFunc("GET /v1/events", s.events)
	mux.HandleFunc("POST /v1/update", s.updateBatch)
	mux.HandleFunc("POST /v1/network/update", s.updateNetworkBatch)
	mux.HandleFunc("POST /v1/objects", s.insertObject)
	mux.HandleFunc("DELETE /v1/objects/{id}", s.removeObject)
	mux.HandleFunc("POST /v1/network/objects", s.insertNetworkObject)
	mux.HandleFunc("DELETE /v1/network/objects/{id}", s.removeNetworkObject)
	mux.HandleFunc("POST /v1/ingest", s.ingestHTTP)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Normally answered before the ready gate in Handler(); kept here
		// for completeness (tests that mount routes() directly).
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.readyz)
	if s.opts.Obs != nil {
		mux.HandleFunc("GET /metrics", s.metrics)
	}
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError renders an engine error through the shared table in
// internal/api — the same classification the binary ingest acks use, so
// the two surfaces report errors identically. Transient conditions
// (degraded durability, admission-control shed) carry Retry-After: the
// condition is expected to clear — degraded via the WAL's heal probe,
// shed as the queue drains.
func writeError(w http.ResponseWriter, err error) {
	info := api.Classify(err)
	if info.RetryAfter {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, info.Status, api.ErrorResponse{Error: err.Error(), Code: info.Code})
}

// readyz is the readiness probe: 503 while recovering is handled by the
// gate in Handler() before this runs, so here readiness means "not
// degraded" — a degraded server keeps serving reads but load balancers
// should prefer healthy replicas for write traffic.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.e.Degraded() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			api.ErrorResponse{Error: "degraded: durability unavailable, writes rejected", Code: api.CodeDegraded})
		return
	}
	w.Write([]byte("ready\n"))
}

// reqCtx derives the handler context for one mutation request, applying
// the server's request timeout when configured.
func (s *Server) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.opts.RequestTimeout)
}

func writeBadRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: msg, Code: api.CodeBadRequest})
}

// maxRequestBody bounds request bodies (comfortably above a 100k-entry
// update batch) so one oversized POST cannot exhaust server memory.
const maxRequestBody = 8 << 20

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	var start time.Time
	if s.opts.Obs.Enabled() {
		start = time.Now()
		defer func() { s.opts.Obs.Observe(obs.StageDecode, time.Since(start)) }()
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				api.ErrorResponse{Error: err.Error(), Code: api.CodeTooLarge})
			return false
		}
		writeBadRequest(w, "bad request body: "+err.Error())
		return false
	}
	return true
}

func pathID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeBadRequest(w, "bad id: "+err.Error())
		return 0, false
	}
	return id, true
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Rho == 0 {
		req.Rho = 1.6
	}
	var sid insq.SessionID
	var err error
	if req.Network {
		sid, err = s.e.CreateNetworkSession(req.K, req.Rho)
	} else {
		sid, err = s.e.CreateSession(req.K, req.Rho)
	}
	if errors.Is(err, engine.ErrClosed) {
		writeError(w, err)
		return
	}
	if err != nil { // parameter validation (incl. no-network-configured)
		writeBadRequest(w, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, api.CreateSessionResponse{Session: uint64(sid)})
}

func (s *Server) closeSession(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	if err := s.e.CloseSession(insq.SessionID(id)); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) updateBatch(w http.ResponseWriter, r *http.Request) {
	var req api.UpdateRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.reqCtx(r.Context())
	defer cancel()
	results, err := s.e.UpdateBatchCtx(ctx, api.NewLocationUpdates(req.Updates))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.NewUpdateResponse(results))
}

func (s *Server) updateNetworkBatch(w http.ResponseWriter, r *http.Request) {
	var req api.NetworkUpdateRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.reqCtx(r.Context())
	defer cancel()
	results, err := s.e.UpdateNetworkBatchCtx(ctx, api.NewNetworkLocationUpdates(req.Updates))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.NewUpdateResponse(results))
}

func (s *Server) insertNetworkObject(w http.ResponseWriter, r *http.Request) {
	var req api.NetworkObjectRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.insert(w, r, insq.Mutation{Network: true, Insert: true, ID: req.Vertex})
}

func (s *Server) removeNetworkObject(w http.ResponseWriter, r *http.Request) {
	if id, ok := pathID(w, r); ok {
		s.remove(w, r, insq.Mutation{Network: true, ID: int(id)})
	}
}

func (s *Server) insertObject(w http.ResponseWriter, r *http.Request) {
	var req api.ObjectRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.insert(w, r, insq.Mutation{Insert: true, P: insq.Pt(req.X, req.Y)})
}

func (s *Server) removeObject(w http.ResponseWriter, r *http.Request) {
	if id, ok := pathID(w, r); ok {
		s.remove(w, r, insq.Mutation{ID: int(id)})
	}
}

// insert applies one insert as a one-entry batch and answers its id.
func (s *Server) insert(w http.ResponseWriter, r *http.Request, m insq.Mutation) {
	ids, err := s.e.ApplyMutations(r.Context(), []insq.Mutation{m})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ObjectResponse{ID: ids[0]})
}

// remove applies one removal as a one-entry batch.
func (s *Server) remove(w http.ResponseWriter, r *http.Request, m insq.Mutation) {
	if _, err := s.e.ApplyMutations(r.Context(), []insq.Mutation{m}); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// metrics serves the Prometheus exposition of the pipeline's registry.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.opts.Obs.Registry().WritePrometheus(w)
}

// statsResponse builds the wire stats, stamping the serving build and
// the ingest path's counters.
func (s *Server) statsResponse(st insq.EngineStats) api.StatsResponse {
	resp := api.NewStatsResponse(st)
	resp.Version, resp.GoVersion, resp.Revision = obs.Build()
	if is := s.ingest.snapshot(); is.FramesTotal > 0 || is.Connections > 0 {
		resp.Ingest = &is
	}
	return resp
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	if s.opts.StatsTTL <= 0 {
		st, err := s.e.Stats()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.statsResponse(st))
		return
	}
	// TTL cache with single flight: Engine.Stats fans a mailbox message to
	// every shard worker, so concurrent scrapers share one refresh and a
	// 1s poller costs the shards one stats message per TTL, not per
	// request.
	s.statsMu.Lock()
	if time.Since(s.statsAt) <= s.opts.StatsTTL {
		resp := s.statsCache
		s.statsMu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	st, err := s.e.Stats()
	if err != nil {
		s.statsMu.Unlock()
		writeError(w, err)
		return
	}
	s.statsCache = s.statsResponse(st)
	s.statsAt = time.Now()
	resp := s.statsCache
	s.statsMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// ssePingInterval keeps idle /events connections alive through proxies
// and lets the handler notice dead peers.
const ssePingInterval = 15 * time.Second

// sessionEvents streams one session's result deltas: GET
// /v1/sessions/{id}/events. The stream opens with a snapshot event (the
// current kNN), then pushes deltas until the client disconnects, the
// session closes (a final close event) or the server shuts down (a final
// bye event).
func (s *Server) sessionEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	s.serveEvents(w, r, []uint64{id}, true)
}

// events is the multi-session stream: GET /v1/events?sessions=1,2,3, or
// every session when the parameter is omitted. Snapshots open the stream
// for explicitly named sessions; a firehose subscription starts empty and
// carries deltas only.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	var ids []uint64
	if raw := r.URL.Query().Get("sessions"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				writeBadRequest(w, "bad sessions parameter: "+err.Error())
				return
			}
			ids = append(ids, id)
		}
	}
	s.serveEvents(w, r, ids, false)
}

// serveEvents is the shared SSE loop. Subscribing before reading the
// baseline snapshots means no delta can fall between them; the client
// dedups the overlap by Seq. The subscriber's queue is bounded with
// coalescing/drop-oldest (see internal/stream), so a stalled connection
// never backpressures the engine.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request, ids []uint64, single bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			api.ErrorResponse{Error: "streaming unsupported by this connection", Code: api.CodeInternal})
		return
	}
	sub := s.e.Stream().Subscribe(0, ids...)
	if sub == nil { // broker already closed: shutdown in progress
		writeError(w, engine.ErrClosed)
		return
	}
	defer sub.Close()

	// Baseline snapshots, gathered before any status is written so an
	// unknown single session can still fail with a clean 404.
	snapshots := make([]api.SessionEvent, 0, len(ids))
	for _, id := range ids {
		st, err := s.e.State(insq.SessionID(id))
		if err != nil {
			if single {
				writeError(w, err)
				return
			}
			continue // multi-stream: skip unknown ids, serve the rest
		}
		snapshots = append(snapshots, api.SessionEvent{
			Session: id,
			Seq:     st.Seq,
			Epoch:   st.Epoch,
			Cause:   string(stream.CauseSnapshot),
			KNN:     st.KNN,
		})
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// The server's WriteTimeout is sized for request/response traffic;
	// this connection is long-lived, so push the deadline out before every
	// write instead.
	rc := http.NewResponseController(w)
	emit := func(ev api.SessionEvent) bool {
		rc.SetWriteDeadline(time.Now().Add(2 * ssePingInterval))
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Cause, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, snap := range snapshots {
		if !emit(snap) {
			return
		}
	}

	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.Done():
			// Graceful shutdown: a final farewell instead of a reset.
			emit(api.SessionEvent{Cause: string(stream.CauseBye)})
			return
		case <-ping.C:
			rc.SetWriteDeadline(time.Now().Add(2 * ssePingInterval))
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-sub.Wake():
			for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
				if !emit(api.NewSessionEvent(ev)) {
					return
				}
				if single && ev.Cause == stream.CauseClose {
					return // the one watched session is gone
				}
			}
		}
	}
}
