// Package index owns the canonical data-object indexes of the serving
// system and publishes them to readers as immutable, epoch-versioned
// snapshots.
//
// The INS workload is read-dominated: thousands of live query sessions
// resolve kNN and influential-neighbor lookups against the index for every
// location update, while object inserts/deletes are comparatively rare.
// The Store therefore keeps ONE canonical copy of the plane VoR-tree and
// ONE of the network Voronoi diagram and applies each mutation batch
// copy-on-write: branch the mutated side(s) of the current snapshot, apply
// the batch, publish the result as a new Snapshot behind an atomic pointer.
// Readers pin a snapshot and serve from it lock-free; publishing is O(1)
// for them. Old snapshots are garbage-collected by the Go runtime as soon
// as no session pins them (the Store tracks pin counts so the lifecycle is
// observable).
//
// A bounded mutation log (per-epoch ops with the inserted object's Voronoi
// neighbors captured at apply time) lets a session that re-pins from epoch
// E to epoch E' decide whether any of the intervening mutations can affect
// its guard sets — the same lazy-invalidation rule the paper uses for data
// updates — without touching the new index. When the log has been trimmed
// past E the session invalidates conservatively.
package index

import (
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/vortree"
)

// Backend is the part of the read surface the two index implementations
// share: the plane VoR-tree (vortree.Index) and the network Voronoi
// diagram (netvor.Diagram).
type Backend interface {
	// Len returns the number of live data objects.
	Len() int
	// Contains reports whether object id is live.
	Contains(id int) bool
	// INS returns the influential neighbor set I(ids) of Definition 4,
	// sorted by id.
	INS(ids []int) ([]int, error)
}

// NetworkBackend is the network-side read surface: Backend plus
// network-distance kNN and the Theorem-2 subnetwork extraction.
// Implemented by *netvor.Diagram.
type NetworkBackend interface {
	Backend
	// KNNWithDistances returns the k nearest sites to pos with their
	// network distances, by incremental network expansion.
	KNNWithDistances(pos roadnet.Position, k int) ([]int, []float64)
	// KNNWithDistancesCounted additionally returns the edge relaxations
	// of this search, exact under concurrent readers.
	KNNWithDistancesCounted(pos roadnet.Position, k int) ([]int, []float64, int)
	// AppendKNN is KNNWithDistancesCounted appending onto dst/ds with
	// caller-supplied scratch — the allocation-free form the serving hot
	// path uses.
	AppendKNN(pos roadnet.Position, k int, dst []int, ds []float64, sc *netvor.SearchScratch) ([]int, []float64, int)
	// AppendINS is Backend.INS appending onto dst with caller-supplied
	// scratch.
	AppendINS(ids []int, dst []int, sc *netvor.SearchScratch) ([]int, error)
	// IsSite reports whether vertex v carries a data object.
	IsSite(v int) bool
	// Subnetwork extracts the Theorem-2 search space of the given sites.
	Subnetwork(sites []int) *netvor.Subnetwork
	// SubnetworkInto is Subnetwork reusing a previous extraction's storage
	// (nil allocates fresh) and caller-supplied scratch — the form the
	// query layer uses so periodic recomputes stop paying the extraction
	// allocations.
	SubnetworkInto(sites []int, sub *netvor.Subnetwork, sc *netvor.SearchScratch) *netvor.Subnetwork
	// ALTStats reports the shortest-path pruning instrumentation: the
	// landmark count and the lazy site-projection rebuilds performed.
	ALTStats() (landmarks int, projRebuilds uint64)
	// Graph returns the underlying road network.
	Graph() *roadnet.Graph
	// Sites returns the sorted site vertex ids.
	Sites() []int
}

// Compile-time conformance of the two index implementations. The plane
// side has one implementation and its query processor holds it concretely
// (Snapshot.Plane returns *vortree.Index): the validation loop reads an
// object's coordinates per guard object per update, which an interface
// would turn into a dynamic call.
var (
	_ Backend        = (*vortree.Index)(nil)
	_ NetworkBackend = (*netvor.Diagram)(nil)
)
