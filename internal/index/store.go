package index

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/netvor"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/vortree"
)

// Errors returned by Store mutations.
var (
	// ErrNoPlane is returned for plane-object mutations on a store
	// configured without plane objects.
	ErrNoPlane = errors.New("index: no plane index configured")
	// ErrNoNetwork is returned for network-site mutations on a store
	// configured without a road network.
	ErrNoNetwork = errors.New("index: no road network configured")
	// ErrUnknownObject is returned when removing an object id that is not
	// live.
	ErrUnknownObject = errors.New("index: unknown object")
	// ErrUnknownSite is returned when removing a network vertex that
	// carries no data object.
	ErrUnknownSite = errors.New("index: unknown network site")
	// ErrSiteExists is returned when inserting a network site at a vertex
	// that already carries one.
	ErrSiteExists = errors.New("index: network site already exists")
	// ErrLastSite is returned when a batch would leave the network side
	// without any site; the network Voronoi diagram of an empty site set
	// is undefined.
	ErrLastSite = errors.New("index: cannot remove the last network site")
	// ErrClosed is returned by mutations after Close.
	ErrClosed = errors.New("index: store closed")
	// ErrOutOfBounds is returned for inserts outside the data space —
	// a plane point outside the bounds or a network vertex id outside the
	// graph — rejected before the copy-on-write branch is created.
	ErrOutOfBounds = errors.New("index: point outside the data space")
	// ErrDurability wraps every durability-append failure (the underlying
	// cause chains behind it), so callers can map "the WAL rejected this
	// batch" to a retryable unavailability without knowing the WAL's
	// error vocabulary.
	ErrDurability = errors.New("index: durability append failed")
)

// DefaultLogDepth is the default mutation-log capacity: how far back a
// reader may lag (in data updates) and still move on with exact
// affectedness checks instead of a conservative invalidation.
const DefaultLogDepth = 4096

// Config parameterizes NewStore. Objects/Bounds configure the plane side,
// Network/NetworkSites the road-network side; at least one side must be
// configured.
type Config struct {
	// Fanout is ignored. It was the node fanout of the R-tree the plane
	// index no longer has, and stays so that existing callers compile.
	Fanout int
	// LogDepth bounds the mutation log (default DefaultLogDepth).
	LogDepth int

	// Bounds is the data space of the plane objects.
	Bounds geom.Rect
	// Objects are the initial plane data objects.
	Objects []geom.Point

	// Network is the road network (shared, not copied; the store's
	// published read surface never mutates it).
	Network *roadnet.Graph
	// NetworkSites are the vertices holding the network data objects.
	NetworkSites []int

	// Restore, when non-nil, publishes a recovered logical state at its
	// checkpoint epoch instead of seeding from Objects/NetworkSites (which
	// are then ignored; Bounds and Network still describe the data space).
	// The durability layer (internal/wal) fills it from the newest valid
	// checkpoint, then replays the write-ahead log tail through Apply.
	Restore *Restore

	// Obs, when non-nil, times epoch publication (the publish stage) and
	// reports slow publishes. nil keeps the store's hot path free of any
	// instrumentation cost.
	Obs *obs.Pipeline
}

// Restore is a recovered logical store state: everything a checkpoint
// needs to rebuild the indexes so that they answer — and keep assigning
// object ids — exactly as the instance that wrote it.
type Restore struct {
	// Epoch is the checkpoint's data-update epoch; the restored store
	// publishes its first snapshot at this version and WAL replay
	// continues from Epoch+1.
	Epoch uint64
	// HasPlane marks that the original store carried a plane index (which
	// may have drained to zero live objects).
	HasPlane bool
	// Plane lists the live plane objects ascending by id; NextID is the id
	// the next insert must receive (removed ids stay burned).
	Plane  []vortree.RestoreObject
	NextID int
	// Sites are the network site vertices at the checkpoint (ascending).
	Sites []int
}

// Durability is the optional write-ahead hook of the store. Apply invokes
// it after the whole batch mutated the copy-on-write branch but before the
// snapshot is published or any caller sees the new epoch — the append (and
// its policy-dependent fsync) is the durability point of the batch. An
// error aborts the batch unpublished; the caller never observes a state
// the log does not cover. The hook runs under the store's mutation lock,
// so appends arrive in epoch order.
type Durability interface {
	// AppendBatch persists one applied batch; firstEpoch is the epoch of
	// the batch's first mutation (the batch covers firstEpoch ..
	// firstEpoch+len(muts)-1). The implementation must not retain muts.
	// ctx carries the request trace ID (obs.TraceID) for slow-op
	// attribution; it is not a cancellation signal — the batch has
	// already mutated the branch and must be persisted or aborted whole.
	AppendBatch(ctx context.Context, firstEpoch uint64, muts []Mutation) error
}

// Mutation is one object update in a batch. On the plane side (Network
// false) it is an insert of point P or a removal of object ID. On the
// network side (Network true) ID is the site vertex for both inserts and
// removals — network data objects are identified by the vertex they sit
// on. A batch may mix both sides; each side branches at most once.
type Mutation struct {
	Insert  bool
	P       geom.Point
	ID      int
	Network bool
}

// Op is one applied mutation in the store's log. Whoever moves queries to a
// later snapshot hands them the ops in between (OpsSince), and each query
// judges whether its guard sets survived them; plane queries skip network
// ops and vice versa.
type Op struct {
	// Epoch is the op's position in the global mutation order; the first
	// applied op has epoch 1.
	Epoch  uint64
	Insert bool
	// Network marks a network-site op; ID is then the site vertex.
	Network bool
	// ID is the object inserted or removed.
	ID int
	// P is the inserted object's position (plane inserts only).
	P geom.Point
	// Neighbors is the object's Voronoi neighbor list captured at apply
	// time (after an insert, before a removal on the network side), shared
	// by every session's affectedness check. Nil with Conservative set
	// when the lookup failed.
	Neighbors []int
	// Conservative marks an op whose affectedness cannot be decided
	// exactly; sessions seeing it must invalidate.
	Conservative bool
}

// Store owns the canonical indexes and publishes immutable epoch-versioned
// snapshots. All methods are safe for concurrent use.
type Store struct {
	bounds geom.Rect

	cur       atomic.Pointer[Snapshot]
	closedFlg atomic.Bool

	mu       sync.Mutex // serializes mutation, publish, and notification order
	logDepth int
	log      []Op       // contiguous ops, oldest first
	dur      Durability // optional write-ahead hook; see SetDurability

	obs *obs.Pipeline // nil when observability is off

	publishes atomic.Uint64 // epochs published by Apply
	publishNS atomic.Int64  // cumulative wall time inside Apply

	subMu sync.Mutex
	subs  []chan uint64
}

// Snapshot is one immutable published version of the indexes. Its read
// surface is safe from any goroutine without locking for as long as it is
// referenced; the Go runtime reclaims a superseded snapshot once nothing
// references it.
type Snapshot struct {
	epoch uint64
	plane *vortree.Index  // frozen after publish; nil without plane data
	net   *netvor.Diagram // frozen after publish; nil without a road network
}

// NewStore builds the canonical indexes and publishes the initial snapshot
// at epoch 0.
func NewStore(cfg Config) (*Store, error) {
	if cfg.LogDepth <= 0 {
		cfg.LogDepth = DefaultLogDepth
	}
	hasPlane := len(cfg.Objects) > 0
	sites := cfg.NetworkSites
	epoch := uint64(0)
	if rs := cfg.Restore; rs != nil {
		hasPlane = rs.HasPlane
		sites = rs.Sites
		epoch = rs.Epoch
	}
	if !hasPlane && cfg.Network == nil {
		return nil, errors.New("index: config has neither plane objects nor a road network")
	}
	st := &Store{bounds: cfg.Bounds, logDepth: cfg.LogDepth, obs: cfg.Obs}
	var plane *vortree.Index
	if hasPlane {
		var ix *vortree.Index
		var err error
		if rs := cfg.Restore; rs != nil {
			ix, err = vortree.Restore(cfg.Bounds, rs.Plane, rs.NextID)
		} else {
			ix, _, err = vortree.Build(cfg.Bounds, 0, cfg.Objects)
		}
		if err != nil {
			return nil, fmt.Errorf("index: build plane index: %w", err)
		}
		plane = ix
	}
	var net *netvor.Diagram
	if cfg.Network != nil {
		nv, err := netvor.Build(cfg.Network, sites)
		if err != nil {
			return nil, fmt.Errorf("index: build network diagram: %w", err)
		}
		net = nv
	}
	st.cur.Store(&Snapshot{epoch: epoch, plane: plane, net: net})
	return st, nil
}

// SetDurability attaches (or, with nil, detaches) the write-ahead hook.
// The durability layer attaches it only after recovery replay has run, so
// replayed batches are not appended a second time.
func (st *Store) SetDurability(d Durability) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dur = d
}

// HasPlane reports whether the store carries a plane index.
func (st *Store) HasPlane() bool { return st.cur.Load().plane != nil }

// Bounds returns the plane data space.
func (st *Store) Bounds() geom.Rect { return st.bounds }

// Network returns the CURRENT snapshot's network Voronoi diagram, or nil
// when the store has no road network. Like the plane side, the diagram is
// epoch-versioned: site mutations publish a new frozen diagram, so
// sessions that need a stable view across updates must hold a snapshot
// rather than re-reading this accessor.
func (st *Store) Network() *netvor.Diagram { return st.cur.Load().net }

// Current returns the current snapshot. It stays readable, and unchanged,
// for as long as the caller references it, whatever the store publishes
// meanwhile; after Close it is the final snapshot.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Epoch returns the number of applied data updates.
func (st *Store) Epoch() uint64 { return st.cur.Load().epoch }

// Closed reports whether Close has run.
func (st *Store) Closed() bool { return st.closedFlg.Load() }

// Insert adds one plane data object copy-on-write and publishes the next
// snapshot. It returns the assigned object id (inserting a duplicate point
// returns the existing id, still consuming an epoch).
func (st *Store) Insert(p geom.Point) (int, error) {
	ids, err := st.Apply([]Mutation{{Insert: true, P: p}})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}

// Remove deletes one plane data object copy-on-write and publishes the
// next snapshot.
func (st *Store) Remove(id int) error {
	_, err := st.Apply([]Mutation{{ID: id}})
	return err
}

// Apply applies a batch of mutations under at most ONE path-copied branch
// per index side and ONE publish, and returns the object id of each
// mutation in order. Publication is sublinear in the object count on both
// sides: the plane branch shares every untouched triangulation page (faces,
// vertex-face hints, entry grid), and the network branch shares every untouched
// shortest-path label page, with the snapshot it supersedes — the epoch
// cost is proportional to the batch's structural footprint, not to the
// index size. A failed mutation or durability append aborts the whole
// batch without publishing anything: neither side's branch shares writer
// state with the published snapshot, so both are simply discarded, and the
// next batch branches the published snapshot afresh.
func (st *Store) Apply(muts []Mutation) ([]int, error) {
	return st.ApplyCtx(context.Background(), muts)
}

// ApplyCtx is Apply with a request context carrying the trace ID for
// slow-op attribution (the context is not a cancellation signal: once
// entered, a batch is applied or aborted whole).
func (st *Store) ApplyCtx(ctx context.Context, muts []Mutation) ([]int, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closedFlg.Load() {
		return nil, ErrClosed
	}
	start := time.Now()
	cur := st.cur.Load()
	if err := st.validate(cur, muts); err != nil {
		return nil, err
	}

	var nextPlane *vortree.Index
	var nextNet *netvor.Diagram
	for _, m := range muts {
		if m.Network && nextNet == nil {
			nextNet = cur.net.Branch()
		}
		if !m.Network && nextPlane == nil {
			nextPlane = cur.plane.Branch()
		}
	}
	ids := make([]int, len(muts))
	ops := make([]Op, len(muts))
	epoch := cur.epoch
	for i, m := range muts {
		epoch++
		if m.Network {
			op, err := applySite(nextNet, m, epoch)
			if err != nil {
				return nil, err
			}
			ids[i] = m.ID
			ops[i] = op
			continue
		}
		if m.Insert {
			id, err := nextPlane.Insert(m.P)
			if err != nil {
				return nil, fmt.Errorf("index: insert %v: %w", m.P, err)
			}
			ids[i] = id
			op := Op{Epoch: epoch, Insert: true, ID: id, P: m.P}
			if nb, err := nextPlane.Neighbors(id); err == nil {
				op.Neighbors = nb
			} else {
				op.Conservative = true
			}
			ops[i] = op
			continue
		}
		if err := nextPlane.Remove(m.ID); err != nil {
			return nil, fmt.Errorf("index: remove %d: %w", m.ID, err)
		}
		ids[i] = m.ID
		ops[i] = Op{Epoch: epoch, ID: m.ID}
	}
	var appendDur time.Duration
	if st.dur != nil {
		var ta time.Time
		if st.obs.Enabled() {
			ta = time.Now()
		}
		if err := st.dur.AppendBatch(ctx, cur.epoch+1, muts); err != nil {
			// The batch is durable only if the append succeeded; abort
			// unpublished so no caller observes state the log misses.
			return nil, fmt.Errorf("%w: %w", ErrDurability, err)
		}
		if st.obs.Enabled() {
			appendDur = time.Since(ta)
		}
	}
	// store.publish.delay: a stalled publication — the batch is durable
	// but the epoch swap hasn't happened; readers keep serving the
	// previous snapshot while the store lock is held.
	fault.StorePublishDelay.Fire()
	if nextPlane == nil {
		nextPlane = cur.plane // untouched side carries over, shared
	}
	if nextNet == nil {
		nextNet = cur.net
	}

	st.log = append(st.log, ops...)
	if over := len(st.log) - st.logDepth; over > 0 {
		st.log = append([]Op(nil), st.log[over:]...)
	}
	st.cur.Store(&Snapshot{epoch: epoch, plane: nextPlane, net: nextNet})
	st.publishes.Add(1)
	total := time.Since(start)
	st.publishNS.Add(total.Nanoseconds())
	if st.obs.Enabled() {
		// The publish stage is the epoch's own cost (branch + mutations +
		// swap); the durability append is measured as its own stages.
		st.obs.Observe(obs.StagePublish, total-appendDur)
		st.obs.SlowPublish(obs.TraceID(ctx), epoch, len(muts), total-appendDur)
	}
	st.notify(epoch)
	return ids, nil
}

// applySite applies one network-site mutation to the branched diagram and
// builds its log op. The op captures the site's network Voronoi neighbor
// list — after an insert (who the new cell touches) and before a removal
// (who inherits the territory) — which is exactly what a lagging session
// needs to decide whether its guard cells were disturbed.
func applySite(net *netvor.Diagram, m Mutation, epoch uint64) (Op, error) {
	op := Op{Epoch: epoch, Network: true, Insert: m.Insert, ID: m.ID}
	if m.Insert {
		if err := net.Insert(m.ID); err != nil {
			return Op{}, fmt.Errorf("index: insert site %d: %w", m.ID, err)
		}
		if nb, err := net.Neighbors(m.ID); err == nil {
			op.Neighbors = nb // immutable list; safe to share with the log
		} else {
			op.Conservative = true
		}
		return op, nil
	}
	if nb, err := net.Neighbors(m.ID); err == nil {
		op.Neighbors = nb
	} else {
		op.Conservative = true
	}
	if err := net.Remove(m.ID); err != nil {
		return Op{}, fmt.Errorf("index: remove site %d: %w", m.ID, err)
	}
	return op, nil
}

// validate rejects a bad batch against the current state before any branch
// is paid for: plane inserts must be in bounds, network inserts must name
// a fresh vertex, and removals must reference an object live at that point
// of the batch (the network side additionally may never drain to zero
// sites). Input errors are therefore answered before any branch is paid
// for; a mid-batch abort is left to internal inconsistencies and discards
// its branches like any other abort. (Plane ids assigned by an insert are
// unknown until applied, so a batch cannot remove them; network sites are
// named by vertex, so it can.)
func (st *Store) validate(cur *Snapshot, muts []Mutation) error {
	var removed map[int]bool   // plane ids removed earlier in the batch
	var siteDelta map[int]bool // vertex -> is a site after the batch prefix
	sitesLeft := 0             // network site count along the batch prefix
	isSiteNow := func(v int) bool {
		if s, ok := siteDelta[v]; ok {
			return s
		}
		return cur.net.IsSite(v)
	}
	for _, m := range muts {
		if m.Network {
			if cur.net == nil {
				return ErrNoNetwork
			}
			if siteDelta == nil {
				siteDelta = make(map[int]bool)
				sitesLeft = cur.net.Len()
			}
			if m.Insert {
				if m.ID < 0 || m.ID >= cur.net.Graph().NumVertices() {
					return fmt.Errorf("%w: network vertex %d", ErrOutOfBounds, m.ID)
				}
				if isSiteNow(m.ID) {
					return fmt.Errorf("%w: %d", ErrSiteExists, m.ID)
				}
				siteDelta[m.ID] = true
				sitesLeft++
				continue
			}
			if !isSiteNow(m.ID) {
				return fmt.Errorf("%w: %d", ErrUnknownSite, m.ID)
			}
			if sitesLeft == 1 {
				return ErrLastSite
			}
			siteDelta[m.ID] = false
			sitesLeft--
			continue
		}
		if cur.plane == nil {
			return ErrNoPlane
		}
		if m.Insert {
			if !st.bounds.Contains(m.P) {
				return fmt.Errorf("%w: %v", ErrOutOfBounds, m.P)
			}
			continue
		}
		if removed == nil {
			removed = make(map[int]bool)
		}
		if !cur.plane.Contains(m.ID) || removed[m.ID] {
			return fmt.Errorf("%w: %d", ErrUnknownObject, m.ID)
		}
		removed[m.ID] = true
	}
	return nil
}

// PublishStats returns the number of Apply publications and the cumulative
// wall time spent inside Apply — branch, mutations and publish. The
// quotient is the per-epoch publication cost the path-copying publication
// keeps sublinear in the object count.
func (st *Store) PublishStats() (publishes uint64, total time.Duration) {
	return st.publishes.Load(), time.Duration(st.publishNS.Load())
}

// PlaneShareStats reports the structural sharing of the current plane
// snapshot against its predecessor: the triangulation pages its publishing
// epoch copied, and the total page count. Both are 0 without a plane index.
func (st *Store) PlaneShareStats() (copied, total int) {
	if p := st.cur.Load().plane; p != nil {
		return p.ShareStats()
	}
	return 0, 0
}

// NetworkShareStats reports the structural sharing of the current network
// snapshot against its predecessor: the shortest-path label pages its
// publishing epoch copied, and the total page count. Both are 0 without a
// road network.
func (st *Store) NetworkShareStats() (copied, total int) {
	if n := st.cur.Load().net; n != nil {
		return n.ShareStats()
	}
	return 0, 0
}

// OpsSince returns the ops with epochs in (from, to] and reports whether
// the log still covers that range; ok=false means the caller lagged past
// the log capacity and must invalidate conservatively. The returned slice
// aliases the log; callers must not modify it.
func (st *Store) OpsSince(from, to uint64) ([]Op, bool) {
	if to <= from {
		return nil, true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.log) == 0 || st.log[0].Epoch > from+1 {
		return nil, false
	}
	lo := int(from - st.log[0].Epoch + 1) // index of epoch from+1
	hi := int(to - st.log[0].Epoch + 1)   // one past epoch to
	if hi > len(st.log) {
		// to is ahead of the applied log — cannot happen for epochs read
		// from published snapshots, but never over-promise.
		return nil, false
	}
	return st.log[lo:hi], true
}

// Subscribe returns a channel that receives the epoch of every publish.
// Notifications are coalesced: a slow subscriber sees only the newest
// epoch, which is all a reader moving to the newest snapshot needs.
func (st *Store) Subscribe() <-chan uint64 {
	ch := make(chan uint64, 1)
	st.subMu.Lock()
	st.subs = append(st.subs, ch)
	st.subMu.Unlock()
	return ch
}

// notify pushes epoch to every subscriber without blocking.
func (st *Store) notify(epoch uint64) {
	st.subMu.Lock()
	defer st.subMu.Unlock()
	for _, ch := range st.subs {
		for {
			select {
			case ch <- epoch:
			default:
				// Full: drop the stale epoch and retry with the newest.
				select {
				case <-ch:
					continue
				default:
				}
			}
			break
		}
	}
}

// Close rejects further mutations. Reads through any snapshot, the final
// current one included, remain valid.
func (st *Store) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closedFlg.Store(true)
}

// Epoch returns the snapshot's version: the number of data updates applied
// when it was published.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Plane returns the snapshot's plane index, or nil when the store has
// none. The index is frozen at publish: reads are race-free across
// sessions, mutations are rejected.
func (s *Snapshot) Plane() *vortree.Index { return s.plane }

// Network returns the snapshot's network Voronoi diagram, or nil without a
// road network. The diagram is frozen at publish; reads are race-free
// across sessions, mutations are rejected.
func (s *Snapshot) Network() *netvor.Diagram { return s.net }

// PlaneObjects serializes the snapshot's plane side for checkpointing: the
// live objects ascending by id, and the id the next insert will assign
// (removed ids stay burned). Both are nil/0 without a plane index. The
// checkpoint writer calls it on a frozen snapshot off the hot path.
func (s *Snapshot) PlaneObjects() ([]vortree.RestoreObject, int) {
	if s.plane == nil {
		return nil, 0
	}
	ids := s.plane.IDs()
	objs := make([]vortree.RestoreObject, len(ids))
	for i, id := range ids {
		objs[i] = vortree.RestoreObject{ID: id, P: s.plane.Point(id)}
	}
	return objs, s.plane.NextID()
}

// NetworkSites serializes the snapshot's network side for checkpointing:
// the site vertices ascending, or nil without a road network.
func (s *Snapshot) NetworkSites() []int {
	if s.net == nil {
		return nil
	}
	sites := s.net.Sites()
	out := make([]int, len(sites))
	copy(out, sites)
	return out
}
