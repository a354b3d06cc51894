// Package engine is the concurrent MkNN serving subsystem: it turns the
// single-query INS processors of internal/core into an online engine that
// maintains thousands of live query sessions against one logical dataset,
// the load shape of an LBS server tracking moving clients.
//
// The design is session-sharded over shared immutable index snapshots.
// One index.Store owns the canonical VoR-tree and/or network Voronoi
// diagram and publishes an immutable, epoch-versioned snapshot after every
// data update (copy-on-write). Shards own nothing but sessions: N shard
// workers, each a single goroutine running every session pinned to it
// (round-robin by session id, so routing needs no shared lookup table).
// All sessions — across all shards — read the same snapshot memory
// lock-free, so resident index memory is O(objects) regardless of shard
// count, where the earlier replica design paid O(shards × objects) and
// applied every mutation once per shard.
//
// Requests travel as messages on per-shard mailbox channels. A batched
// location-update request is fanned out to the owning shards and gathered.
// A data update (object insert/delete) goes only to the Store, which
// applies it copy-on-write, publishes the next snapshot, and notifies the
// shards. Each shard holds one snapshot, which all its sessions read. When
// the store has moved on — on an epoch notification, and before the shard
// handles any message — the shard takes the newest snapshot, reads the
// store's mutation log of the window once, and advances every session over
// it: a session invalidates its INS guard sets exactly when a skipped
// mutation could affect them — the paper's lazy invalidation, driven by
// snapshot epochs. An old snapshot is garbage-collected once the last
// shard has moved past it; insq_shard_epoch_lag names a shard that has
// not.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Errors returned by engine operations.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("engine: closed")
	// ErrUnknownSession is returned for session ids that were never created
	// or are already closed.
	ErrUnknownSession = errors.New("engine: unknown session")
	// ErrUnknownObject is returned when removing an object id that is not
	// live in the index.
	ErrUnknownObject = errors.New("engine: unknown object")
	// ErrNoPlaneIndex is returned when a plane operation hits an engine
	// configured without plane objects.
	ErrNoPlaneIndex = errors.New("engine: no plane index configured")
	// ErrNoNetwork is returned when a network session is created on an
	// engine configured without a road network.
	ErrNoNetwork = errors.New("engine: no road network configured")
	// ErrOutOfBounds is returned when inserting an object outside the
	// configured data space — a plane point outside the bounds or a
	// network vertex id outside the graph — a caller-input error, rejected
	// before the update reaches the store.
	ErrOutOfBounds = errors.New("engine: point outside the data space")
	// ErrSiteExists is returned when inserting a network data object at a
	// vertex that already carries one.
	ErrSiteExists = errors.New("engine: network site already exists")
	// ErrLastSite is returned when removing the only remaining network
	// data object.
	ErrLastSite = errors.New("engine: cannot remove the last network site")
	// ErrDegraded is returned for data-object mutations while the
	// durability layer is in degraded mode: the WAL cannot accept
	// appends, so writes are rejected (HTTP 503 + Retry-After) while
	// reads — location updates, queries, SSE — keep serving. The WAL's
	// heal probe clears the condition when the disk recovers.
	ErrDegraded = errors.New("engine: degraded: durability unavailable, writes temporarily rejected")
	// ErrOverloaded is returned when admission control sheds a batched
	// update because a target shard's mailbox sits at its high watermark
	// (HTTP 429 + Retry-After): shedding early with a retryable status
	// beats queueing unboundedly and serving everyone late.
	ErrOverloaded = errors.New("engine: overloaded: shard queue at high watermark")
	// ErrExpired marks per-entry results whose request deadline passed
	// before the owning shard could apply them; the shard drops the work
	// instead of executing it late.
	ErrExpired = errors.New("engine: request deadline expired before apply")
	// ErrInvalidPosition marks per-entry results whose position the
	// session's space does not have — a plane point with a NaN or infinite
	// coordinate, a network position off the graph: a caller-input error,
	// rejected before anything is counted.
	ErrInvalidPosition = core.ErrInvalidPosition
)

// Config parameterizes New. Objects/Bounds configure the 2D Euclidean
// (plane) side; Network/NetworkSites the road-network side. At least one
// side must be configured; both may be.
type Config struct {
	// Shards is the number of shard workers (default 4). More shards mean
	// more parallelism; the index is shared, so shard count no longer
	// multiplies memory.
	Shards int
	// Fanout is ignored. It was the node fanout of the R-tree the plane
	// index no longer has, and stays so that existing callers compile.
	Fanout int
	// MailboxDepth is the per-shard request queue length (default 128);
	// senders block when a mailbox is full, providing backpressure.
	MailboxDepth int
	// ShedDepth is the admission-control high watermark: a batched update
	// is shed with ErrOverloaded when any target shard's mailbox already
	// holds at least this many messages, instead of blocking the sender
	// against a queue that keeps growing. Default MailboxDepth (shed
	// exactly when a send would block); negative disables shedding and
	// restores pure blocking backpressure.
	ShedDepth int
	// LogDepth bounds the store's mutation log (default
	// index.DefaultLogDepth): how many data updates a shard may fall behind
	// and still advance its sessions without a conservative recomputation.
	LogDepth int
	// StreamQueueDepth bounds each push subscriber's pending-event queue
	// (default stream.DefaultQueueDepth); see the stream package for the
	// coalescing/overflow policy behind the bound.
	StreamQueueDepth int

	// Bounds is the data space of the plane objects.
	Bounds geom.Rect
	// Objects are the initial plane data objects.
	Objects []geom.Point

	// Network is the road network, shared (not copied) with the engine.
	Network *roadnet.Graph
	// NetworkSites are the vertices holding the network data objects.
	NetworkSites []int

	// WAL, when non-nil, is an opened durability manager; the engine then
	// serves from its recovered store instead of building one (and
	// Objects/NetworkSites/Bounds above are ignored — the manager's store
	// already carries the recovered state). Lifecycle: close the manager
	// BEFORE Engine.Close, so its final checkpoint still runs (a closed
	// store checkpoints nothing); the engine closes the store either way.
	WAL *wal.Manager

	// Obs, when non-nil, enables pipeline observability: per-stage timing
	// (queue wait, apply, sweep, push), slow-op logging, and engine/stream
	// gauges on the pipeline's registry. With a WAL, pass the same
	// pipeline in the index.Config given to wal.Open so store and log
	// stages land in the same registry. nil compiles the whole layer to a
	// no-op.
	Obs *obs.Pipeline
}

// SessionID identifies a live query session. The owning shard is encoded
// as id mod Shards, so routing needs no shared lookup table.
type SessionID uint64

// LocationUpdate is one session's new position within a batch.
type LocationUpdate struct {
	Session SessionID
	Pos     geom.Point
}

// NetworkLocationUpdate is one network session's new position.
type NetworkLocationUpdate struct {
	Session SessionID
	Pos     roadnet.Position
}

// UpdateResult is the per-session outcome of a batched update: the current
// kNN object ids (freshly allocated) or the error for that session.
// Per-session errors do not fail the rest of the batch.
type UpdateResult struct {
	Session SessionID
	KNN     []int
	Err     error
}

// Stats is an aggregated snapshot of the engine's serving state. It is
// also the body of GET /v1/stats (api.StatsResponse embeds it), so its
// JSON keys are the wire contract; durations serialise as integer
// nanoseconds.
type Stats struct {
	Shards   int `json:"shards"`
	Sessions int `json:"sessions"`
	// Objects is the number of live plane data objects (0 without a plane
	// index).
	Objects int `json:"objects"`
	// NetworkObjects is the number of live network data objects (sites; 0
	// without a road network).
	NetworkObjects int `json:"network_objects"`
	// Epoch counts applied data updates (both sides share one epoch
	// sequence).
	Epoch uint64 `json:"epoch"`
	// Snapshots is the number of distinct index snapshots held by the
	// store (its current one) and the shards: 1 once every shard has moved
	// to the current version, more while a shard still holds an older one
	// (Stats does not wait for the shards, so it may read 2 just after a
	// data update while a shard is still sweeping).
	Snapshots int `json:"snapshots"`
	// EpochPublishUS is the mean wall time of publishing one data-update
	// epoch (path-copy branch + mutations + publish), in microseconds;
	// 0 before the first data update.
	EpochPublishUS float64 `json:"epoch_publish_us"`
	// IndexNodes is the plane index's page count (triangulation faces,
	// vertex-face hints and entry grid); IndexNodesCopied is how many of
	// them the latest epoch copied (the rest are shared with the previous
	// snapshot — the copy-on-write publication at work).
	IndexNodes       int `json:"index_nodes"`
	IndexNodesCopied int `json:"index_nodes_copied"`
	// NetPages is the network label-page count; NetPagesCopied is how many
	// of them the latest epoch copied — the network side's share
	// instrumentation, mirroring IndexNodes/IndexNodesCopied.
	NetPages       int `json:"net_pages"`
	NetPagesCopied int `json:"net_pages_copied"`
	// NetProjRebuilds counted the ALT layer's site-projection rebuilds and
	// reads 0 now that the layer is gone; the field stays, off the wire,
	// until the benchmark drops netvor.proj_rebuilds, which reads it.
	NetProjRebuilds uint64 `json:"-"`
	// Updates counts processed location updates.
	Updates uint64 `json:"updates"`
	// Shed counts update entries rejected by admission control
	// (ErrOverloaded); Expired counts entries dropped because their
	// request deadline passed before apply (ErrExpired).
	Shed    uint64 `json:"shed"`
	Expired uint64 `json:"expired"`
	// Degraded reports the durability layer's read-only mode: writes are
	// being rejected until the heal probe restores the WAL.
	Degraded bool `json:"degraded"`
	// Uptime is the time since New.
	Uptime time.Duration `json:"uptime_ns"`
	// UpdatesPerSec is Updates averaged over Uptime.
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// Counters sums the INS cost counters of every session the engine has
	// served: it only grows, as a closed session's counts stay in it. Each
	// shard posts its total at the end of every batch and sweep, so a data
	// update's charges (invalidations, watched sessions' eager
	// recomputations) show once every shard has swept past it.
	Counters metrics.Counters `json:"counters"`
	// Latency summarizes per-location-update serving latency.
	Latency obs.LatencySummary `json:"latency"`
	// Stream is the push broker's fan-out state: subscribers, published/
	// delivered events, and the coalesce/drop counters that make the
	// overflow policy observable.
	Stream stream.Stats `json:"stream"`
	// WAL is the durability pipeline's counter snapshot, nil when the
	// engine runs without a write-ahead log.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// String renders the snapshot as a short report.
func (s Stats) String() string {
	return fmt.Sprintf("shards=%d sessions=%d objects=%d netobjects=%d epoch=%d snaps=%d updates=%d up=%v rate=%.0f/s latency[%v] stream[subs=%d pub=%d coal=%d drop=%d]",
		s.Shards, s.Sessions, s.Objects, s.NetworkObjects, s.Epoch, s.Snapshots, s.Updates,
		s.Uptime.Round(time.Millisecond), s.UpdatesPerSec, s.Latency,
		s.Stream.Subscribers, s.Stream.Published, s.Stream.Coalesced, s.Stream.Dropped)
}

// Engine is the concurrent MkNN serving engine. All methods are safe for
// concurrent use.
type Engine struct {
	store     *index.Store
	wal       *wal.Manager // nil without durability
	events    *stream.Broker
	shards    []*shard
	start     time.Time
	hasPlane  bool
	bounds    geom.Rect     // plane data space (meaningful when hasPlane)
	obs       *obs.Pipeline // nil when observability is off
	shedDepth int           // admission-control watermark; 0 disables

	// tables is the endpoint-table store every shard's scratch shares: one
	// ring of ⌊2V/3⌋ entries per shard in all.
	tables *netvor.TableStore

	// shed counts entries rejected by admission control; expired counts
	// entries whose deadline passed while blocked at the mailbox door
	// (shard-side expiries are counted per shard).
	shed    atomic.Uint64
	expired atomic.Uint64

	mu     sync.RWMutex // held (shared) across every mailbox round-trip; Close takes it exclusively
	closed bool

	seqMu   sync.Mutex
	nextSeq uint64

	// plans recycles the fan-out scratch of batched location updates (the
	// routed entry slices and the gather channel); only the per-session
	// results, which are handed to the caller, are allocated per batch.
	plans sync.Pool
}

// batchPlan is the reusable fan-out scratch of one batched update: the
// routed entries, the per-shard partitions and the gather channel. It goes
// back to the pool only after every shard signalled reply, so pooled
// memory is never read concurrently with its next use.
type batchPlan struct {
	entries  []batchEntry
	perShard [][]batchEntry
	reply    chan struct{}
}

// New builds the engine: one shared index store, then the shard workers,
// each subscribed to the store's epoch notifications.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 128
	}
	if cfg.ShedDepth == 0 {
		cfg.ShedDepth = cfg.MailboxDepth
	}
	if cfg.ShedDepth < 0 {
		cfg.ShedDepth = 0 // explicit opt-out: block instead of shedding
	}
	var st *index.Store
	if cfg.WAL != nil {
		st = cfg.WAL.Store()
	} else {
		var err error
		st, err = index.NewStore(index.Config{
			LogDepth:     cfg.LogDepth,
			Bounds:       cfg.Bounds,
			Objects:      cfg.Objects,
			Network:      cfg.Network,
			NetworkSites: cfg.NetworkSites,
			Obs:          cfg.Obs,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	e := &Engine{
		store:     st,
		wal:       cfg.WAL,
		events:    stream.NewBroker(cfg.StreamQueueDepth, cfg.Obs),
		shards:    make([]*shard, cfg.Shards),
		start:     time.Now(),
		hasPlane:  st.HasPlane(),
		bounds:    st.Bounds(),
		obs:       cfg.Obs,
		shedDepth: cfg.ShedDepth,
		tables:    netvor.NewTableStore(cfg.Shards, st.Network()),
	}
	snap := st.Current()
	for i := range e.shards {
		e.shards[i] = &shard{
			id:       i,
			store:    st,
			events:   e.events,
			mailbox:  make(chan message, cfg.MailboxDepth),
			notify:   st.Subscribe(),
			snap:     snap,
			done:     make(chan struct{}),
			sessions: make(map[SessionID]*session),
			obs:      cfg.Obs,
		}
		e.shards[i].epoch.Store(snap.Epoch())
		e.shards[i].netSc.ShareTables(e.tables)
	}
	e.registerMetrics(cfg.Obs.Registry())
	e.plans.New = func() any {
		return &batchPlan{
			perShard: make([][]batchEntry, cfg.Shards),
			reply:    make(chan struct{}, cfg.Shards),
		}
	}
	for _, sh := range e.shards {
		go sh.run()
	}
	return e, nil
}

// registerMetrics exports the serving gauges on the pipeline's registry.
// Every closure reads atomics or channel lengths the workers maintain
// anyway — a scrape never enqueues a mailbox message and never blocks a
// shard. The stream counters go through Broker.Stats, which takes the
// broker read lock briefly.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, sh := range e.shards {
		sh := sh
		shardLabel := obs.Label{Name: "shard", Value: fmt.Sprint(sh.id)}
		reg.GaugeFunc("insq_shard_queue_depth",
			"Messages waiting in the shard's mailbox.",
			func() float64 { return float64(len(sh.mailbox)) }, shardLabel)
		reg.GaugeFunc("insq_shard_sessions",
			"Live sessions owned by the shard.",
			func() float64 { return float64(sh.sessionsN.Load()) }, shardLabel)
		reg.GaugeFunc("insq_shard_epoch_lag",
			"Data updates the shard's snapshot is behind the store's current one.",
			func() float64 {
				held := sh.epoch.Load() // first: the store's epoch only grows
				return float64(e.store.Epoch() - held)
			}, shardLabel)
	}
	reg.GaugeFunc("insq_sessions",
		"Live sessions across all shards.",
		func() float64 { return float64(e.sessionCount()) })
	reg.CounterFunc("insq_updates_total",
		"Processed location updates across all shards.",
		func() float64 { return float64(e.updateCount()) })
	reg.GaugeFunc("insq_epoch",
		"Applied data updates (the current snapshot's version).",
		func() float64 { return float64(e.store.Epoch()) })
	reg.GaugeFunc("insq_objects",
		"Live plane data objects (0 without a plane index).",
		func() float64 {
			plane, _ := e.objectCounts()
			return float64(plane)
		})
	reg.GaugeFunc("insq_network_objects",
		"Live network data objects (0 without a road network).",
		func() float64 {
			_, network := e.objectCounts()
			return float64(network)
		})
	reg.GaugeFunc("insq_table_ring_entries",
		"Entries of the endpoint-table ring the shards share.",
		func() float64 { return float64(e.tables.Stats().Entries) })
	reg.GaugeFunc("insq_table_ring_entries_max",
		"Entries the endpoint-table ring may grow to (2/3 of an entry per road vertex per shard).",
		func() float64 { return float64(e.tables.Stats().Max) })
	lookups := func(outcome string, n func(netvor.TableStats) uint64) {
		reg.CounterFunc("insq_table_lookups_total",
			"Endpoint-table lookups: served, held but stale or too short, or none held at the diagram searched.",
			func() float64 { return float64(n(e.tables.Stats())) }, obs.Label{Name: "outcome", Value: outcome})
	}
	lookups("hit", func(st netvor.TableStats) uint64 { return st.Hits })
	lookups("stale", func(st netvor.TableStats) uint64 { return st.Stale })
	lookups("absent", func(st netvor.TableStats) uint64 { return st.Absent })
	reg.CounterFunc("insq_table_ring_wraps_total",
		"Times the endpoint-table ring was full and wrapped.",
		func() float64 { return float64(e.tables.Stats().Wraps) })
	reg.GaugeFunc("insq_stream_subscribers",
		"Live push-stream subscribers.",
		func() float64 { return float64(e.events.Stats().Subscribers) })
	reg.GaugeFunc("insq_stream_pending_events",
		"Events queued across all push subscribers.",
		func() float64 { return float64(e.events.PendingTotal()) })
	reg.CounterFunc("insq_stream_published_total",
		"Events published to the stream broker.",
		func() float64 { return float64(e.events.Stats().Published) })
	reg.CounterFunc("insq_stream_delivered_total",
		"Events delivered to subscribers.",
		func() float64 { return float64(e.events.Stats().Delivered) })
	reg.CounterFunc("insq_stream_coalesced_total",
		"Events merged into a pending one (latest-result-wins).",
		func() float64 { return float64(e.events.Stats().Coalesced) })
	reg.CounterFunc("insq_stream_dropped_total",
		"Pending events evicted by subscriber queue overflow.",
		func() float64 { return float64(e.events.Stats().Dropped) })
	reg.GaugeFunc("insq_degraded",
		"1 while the durability layer is in degraded read-only mode (writes rejected, reads serving).",
		func() float64 {
			if e.degraded() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("insq_shed_total",
		"Update entries rejected by admission control (shard queue at its high watermark).",
		func() float64 { return float64(e.shed.Load()) })
	reg.CounterFunc("insq_expired_total",
		"Update entries dropped because their request deadline passed before apply.",
		func() float64 { return float64(e.expiredCount()) })
	for _, fp := range fault.Points() {
		fp := fp
		reg.CounterFunc("insq_fault_fires_total",
			"Failpoint fires (fault injection; all zero in production).",
			func() float64 { return float64(fp.Fires()) },
			obs.Label{Name: "point", Value: fp.Name()})
	}
}

// shardOf returns the shard owning sid, or nil for ids the engine never
// issued (0 is reserved).
func (e *Engine) shardOf(sid SessionID) *shard {
	if sid == 0 {
		return nil
	}
	return e.shards[uint64(sid)%uint64(len(e.shards))]
}

// allocSession reserves the next session id; shard assignment is
// round-robin because ids are sequential.
func (e *Engine) allocSession() SessionID {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	e.nextSeq++
	return SessionID(e.nextSeq)
}

// CreateSession registers a plane MkNN session with parameter k and
// prefetch ratio rho and returns its id. The session holds no position
// until its first location update.
func (e *Engine) CreateSession(k int, rho float64) (SessionID, error) {
	return e.createSession(false, k, rho)
}

// CreateNetworkSession registers a road-network MkNN session.
func (e *Engine) CreateNetworkSession(k int, rho float64) (SessionID, error) {
	return e.createSession(true, k, rho)
}

func (e *Engine) createSession(network bool, k int, rho float64) (SessionID, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, ErrClosed
	}
	if network && e.store.Network() == nil {
		return 0, ErrNoNetwork
	}
	if !network && !e.hasPlane {
		return 0, ErrNoPlaneIndex
	}
	sid := e.allocSession()
	reply := make(chan error, 1)
	sh := e.shardOf(sid)
	sh.mailbox <- createMsg{sid: sid, network: network, k: k, rho: rho, reply: reply}
	if err := <-reply; err != nil {
		return 0, err
	}
	return sid, nil
}

// Stream returns the engine's push broker. Subscribe to it to receive
// per-session kNN result deltas: move events when a location update
// changes a watched session's result, data events when an object
// insert/delete invalidates it (the owning shard then recomputes eagerly
// instead of waiting for the session's next poll), and a close event when
// the session ends. The broker outlives nothing: Engine.Close closes it,
// and callers shutting down a server should close it first so subscribers
// get a farewell instead of a reset.
func (e *Engine) Stream() *stream.Broker { return e.events }

// SessionState is a point-in-time result snapshot of one live session,
// served through the owning shard so it is sequenced against the
// session's updates and stream events.
type SessionState struct {
	// KNN is the current kNN membership (freshly allocated; empty before
	// the session's first location update).
	KNN []int
	// Seq is the session's last published stream sequence number; events
	// with Seq <= this are older than the snapshot.
	Seq uint64
	// Epoch is the epoch of the index snapshot the session reads.
	Epoch uint64
}

// State returns a session's current kNN snapshot. SSE handlers use it to
// send a baseline event before the delta stream.
func (e *Engine) State(sid SessionID) (SessionState, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return SessionState{}, ErrClosed
	}
	sh := e.shardOf(sid)
	if sh == nil {
		return SessionState{}, fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	reply := make(chan stateReply, 1)
	sh.mailbox <- stateMsg{sid: sid, reply: reply}
	r := <-reply
	return r.state, r.err
}

// CloseSession removes a live session.
func (e *Engine) CloseSession(sid SessionID) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	sh := e.shardOf(sid)
	if sh == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	reply := make(chan error, 1)
	sh.mailbox <- closeMsg{sid: sid, reply: reply}
	return <-reply
}

// UpdateBatchCtx processes one batched location-update request — typically
// one network round-trip carrying updates for many sessions. Updates are
// fanned out to the owning shards, run in parallel across shards (in input
// order within each session's shard), and gathered into one result per
// update, in input order. The returned error reflects engine-level
// failure only; per-session errors ride in the results. ctx carries the
// trace ID (obs.TraceID) for queue-wait timing and slow-batch attribution,
// and its deadline expires entries still waiting for their shard.
func (e *Engine) UpdateBatchCtx(ctx context.Context, updates []LocationUpdate) ([]UpdateResult, error) {
	plan := e.plans.Get().(*batchPlan)
	plan.entries = plan.entries[:0]
	for i, u := range updates {
		plan.entries = append(plan.entries, batchEntry{idx: i, sid: u.Session, pos: u.Pos})
	}
	return e.runBatch(ctx, false, plan)
}

// UpdateNetworkBatchCtx is UpdateBatchCtx for road-network sessions.
func (e *Engine) UpdateNetworkBatchCtx(ctx context.Context, updates []NetworkLocationUpdate) ([]UpdateResult, error) {
	plan := e.plans.Get().(*batchPlan)
	plan.entries = plan.entries[:0]
	for i, u := range updates {
		plan.entries = append(plan.entries, batchEntry{idx: i, sid: u.Session, net: u.Pos})
	}
	return e.runBatch(ctx, true, plan)
}

// runBatch fans the plan's entries out to their shards, gathers the
// replies and returns the plan to the pool (every shard is done with the
// pooled memory once it has signalled).
func (e *Engine) runBatch(ctx context.Context, network bool, plan *batchPlan) ([]UpdateResult, error) {
	defer e.plans.Put(plan)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	results := make([]UpdateResult, len(plan.entries))
	perShard := plan.perShard
	for i := range perShard {
		perShard[i] = perShard[i][:0]
	}
	for _, en := range plan.entries {
		sh := e.shardOf(en.sid)
		if sh == nil {
			results[en.idx] = UpdateResult{Session: en.sid, Err: fmt.Errorf("%w: %d", ErrUnknownSession, en.sid)}
			continue
		}
		perShard[sh.id] = append(perShard[sh.id], en)
	}
	// Admission control: shed the whole batch before anything is
	// enqueued when a target shard's mailbox already sits at the high
	// watermark. A 429 the client retries with backoff is cheaper for
	// everyone than a sender blocked against a queue that keeps growing.
	if e.shedDepth > 0 {
		for s, part := range perShard {
			if len(part) > 0 && len(e.shards[s].mailbox) >= e.shedDepth {
				depth := len(e.shards[s].mailbox)
				e.shed.Add(uint64(len(plan.entries)))
				if e.obs.Enabled() {
					e.obs.Shed(obs.TraceID(ctx), s, len(plan.entries), depth)
				}
				return nil, fmt.Errorf("%w: shard %d queue depth %d", ErrOverloaded, s, depth)
			}
		}
	}
	// One timestamp and trace per request, stamped at fan-out: each shard
	// reports its own mailbox wait against it as the queue stage.
	var enqueued time.Time
	var trace string
	if e.obs.Enabled() {
		enqueued = time.Now()
		trace = obs.TraceID(ctx)
	}
	sent := 0
	for s, part := range perShard {
		if len(part) == 0 {
			continue
		}
		msg := batchMsg{ctx: ctx, network: network, entries: part, results: results, reply: plan.reply, trace: trace, enqueued: enqueued}
		select {
		case e.shards[s].mailbox <- msg:
			sent++
		case <-ctx.Done():
			// The request deadline passed while blocked at the mailbox
			// door: fail this shard's entries without enqueueing them (the
			// shard drops already-queued parts itself, via msg.ctx).
			cerr := ctx.Err()
			for _, en := range part {
				results[en.idx] = UpdateResult{Session: en.sid, Err: fmt.Errorf("%w: %v", ErrExpired, cerr)}
			}
			e.expired.Add(uint64(len(part)))
			if e.obs.Enabled() {
				e.obs.Expired(trace, s, len(part), time.Since(enqueued))
			}
		}
	}
	for i := 0; i < sent; i++ {
		<-plan.reply
	}
	return results, nil
}

// ApplyMutations is the engine's one write entry: it inserts and removes
// plane objects and network sites (a network object is named by the vertex
// it sits on). The whole batch is validated up front, logged as one WAL
// record and published as one copy-on-write snapshot under the next
// epochs; it is applied or rejected whole. Sessions whose guard sets a
// mutation can affect are invalidated when their shard moves to the new
// snapshot. The returned ids
// parallel muts: the assigned id for plane inserts, the echoed id/vertex
// otherwise. ctx carries the trace ID for slow-op attribution in the
// publish and WAL stages.
func (e *Engine) ApplyMutations(ctx context.Context, muts []index.Mutation) ([]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	if len(muts) == 0 {
		return nil, nil
	}
	if e.degraded() {
		return nil, ErrDegraded
	}
	// Reject bad input before it reaches the store (and after the closed
	// check, so a closed engine always reports ErrClosed).
	for _, m := range muts {
		if !m.Network && m.Insert && e.hasPlane && !e.bounds.Contains(m.P) {
			return nil, fmt.Errorf("%w: %v not in [%v, %v]", ErrOutOfBounds, m.P, e.bounds.Min, e.bounds.Max)
		}
	}
	ids, err := e.store.ApplyCtx(ctx, muts)
	if err != nil {
		return nil, e.mapStoreErr(err)
	}
	return ids, nil
}

// degraded reports whether the durability layer currently rejects
// appends; an engine without a WAL is never degraded.
func (e *Engine) degraded() bool { return e.wal != nil && e.wal.Degraded() }

// Degraded reports whether the engine is in degraded read-only mode:
// the WAL cannot accept appends, data-object mutations are rejected
// with ErrDegraded, and reads keep serving. Always false without a WAL.
func (e *Engine) Degraded() bool { return e.degraded() }

// mapStoreErr translates index.Store errors into the engine's error
// vocabulary (kept stable for HTTP status mapping and errors.Is callers).
func (e *Engine) mapStoreErr(err error) error {
	switch {
	case errors.Is(err, index.ErrDurability):
		// Any durability-append failure is a retryable unavailability: the
		// batch was aborted unpublished, the client should back off and
		// retry (persistent failures flip Degraded() and fail fast here).
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	case errors.Is(err, index.ErrNoPlane):
		return ErrNoPlaneIndex
	case errors.Is(err, index.ErrNoNetwork):
		return ErrNoNetwork
	case errors.Is(err, index.ErrUnknownObject), errors.Is(err, index.ErrUnknownSite):
		return fmt.Errorf("%w: %v", ErrUnknownObject, err)
	case errors.Is(err, index.ErrSiteExists):
		return fmt.Errorf("%w: %v", ErrSiteExists, err)
	case errors.Is(err, index.ErrLastSite):
		return ErrLastSite
	case errors.Is(err, index.ErrOutOfBounds):
		return fmt.Errorf("%w: %v", ErrOutOfBounds, err)
	case errors.Is(err, index.ErrClosed):
		return ErrClosed
	}
	return err
}

// Stats gathers an aggregated snapshot without enqueuing anything, so it
// answers even while a shard is stalled in a batch: it reads what the
// shards (atomics and posted counters), the store, the broker and the WAL
// keep, as the /metrics gauges do.
func (e *Engine) Stats() (Stats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return Stats{}, ErrClosed
	}
	st := Stats{
		Shards:   len(e.shards),
		Uptime:   time.Since(e.start),
		Stream:   e.events.Stats(),
		Shed:     e.shed.Load(),
		Degraded: e.degraded(),
		Sessions: e.sessionCount(),
		Updates:  e.updateCount(),
		Expired:  e.expiredCount(),
	}
	if e.wal != nil {
		ws := e.wal.Stats()
		st.WAL = &ws
	}
	if pubs, total := e.store.PublishStats(); pubs > 0 {
		st.EpochPublishUS = float64(total.Nanoseconds()) / 1e3 / float64(pubs)
	}
	st.IndexNodesCopied, st.IndexNodes = e.store.PlaneShareStats()
	st.NetPagesCopied, st.NetPages = e.store.NetworkShareStats()
	st.Objects, st.NetworkObjects = e.objectCounts()
	var hist obs.Histogram
	held := map[uint64]bool{}
	for _, sh := range e.shards {
		sh.postedMu.Lock()
		st.Counters.Add(sh.posted)
		sh.postedMu.Unlock()
		hist.Merge(&sh.hist)
		held[sh.epoch.Load()] = true
	}
	st.Epoch = e.store.Epoch() // after the shards': the store's epoch only grows
	held[st.Epoch] = true
	st.Snapshots = len(held)
	st.Latency = hist.Summary()
	if secs := st.Uptime.Seconds(); secs > 0 {
		st.UpdatesPerSec = float64(st.Updates) / secs
	}
	return st, nil
}

// sessionCount, updateCount, expiredCount and objectCounts read the
// serving totals from atomics the workers and the store keep; Stats and
// the /metrics gauges both read them here. None blocks a shard.
func (e *Engine) sessionCount() int {
	var n int64
	for _, sh := range e.shards {
		n += sh.sessionsN.Load()
	}
	return int(n)
}

func (e *Engine) updateCount() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.hist.Count()
	}
	return n
}

func (e *Engine) expiredCount() uint64 {
	n := e.expired.Load()
	for _, sh := range e.shards {
		n += sh.expired.Load()
	}
	return n
}

// objectCounts returns the live plane and network object counts of the
// current snapshot (0 for a side the engine does not index).
func (e *Engine) objectCounts() (plane, network int) {
	snap := e.store.Current()
	if p := snap.Plane(); p != nil {
		plane = p.Len()
	}
	if n := snap.Network(); n != nil {
		network = n.Len()
	}
	return plane, network
}

// Close shuts the engine down: it waits for in-flight requests, stops the
// shard workers, closes the store and then the stream broker (waking every
// subscriber with Done).
// Close is idempotent; all other methods fail with ErrClosed afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	for _, sh := range e.shards {
		close(sh.mailbox)
	}
	for _, sh := range e.shards {
		<-sh.done
	}
	e.store.Close()
	e.events.Close()
	return nil
}
