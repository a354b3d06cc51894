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
// Readers hold a snapshot and serve from it lock-free; publishing is O(1)
// for them. Old snapshots are garbage-collected by the Go runtime as soon
// as no reader references them.
//
// A bounded mutation log (per-epoch ops with the inserted object's Voronoi
// neighbors captured at apply time) lets a session that moves from epoch
// E to epoch E' decide whether any of the intervening mutations can affect
// its guard sets — the same lazy-invalidation rule the paper uses for data
// updates — without touching the new index. When the log has been trimmed
// past E the session invalidates conservatively.
package index
