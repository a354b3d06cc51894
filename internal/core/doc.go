// Package core implements the paper's primary contribution: the Influential
// Neighbor Set (INS) algorithm for processing moving k-nearest-neighbor
// (MkNN) queries, in both two-dimensional Euclidean space (PlaneQuery) and
// road networks (NetworkQuery).
//
// Instead of materializing a safe region, the algorithm maintains a small
// set of safe guarding objects. A query's kNN set O' remains valid exactly
// while every member of O' is closer to the query than every member of an
// influential set S (Definition 1: O' = NN_k(q) ⇔ O' ≺_q S). The
// influential neighbor set I(O') — the order-1 Voronoi neighbors of the
// kNN members, minus the members themselves (Definition 4) — is such a set,
// is computable in time linear in k from a precomputed Voronoi diagram, and
// implicitly defines the largest possible safe region (the order-k Voronoi
// cell), so recomputation frequency is minimal.
//
// Query processing follows Section III of the paper: on (re)computation the
// processor fetches the ⌊ρk⌋ nearest objects R (ρ ≥ 1 is the prefetch
// ratio) plus I(R) and ships them to the client. Each timestamp is then
// validated by one O(|R|+|I(R)|) scan: find the farthest current kNN member
// (r.delete) and the nearest influential-set member (r.candidate); the kNN
// set is stale only if r.candidate is closer than r.delete. A stale kNN set
// is first repaired locally by re-ranking R with the distances that scan
// evaluated (covering the paper's update cases (i) and (ii)); only when R
// itself is invalidated does the processor recompute — a communication
// event, which the experiments count.
//
// PlaneQuery's scan evaluates only the distances a verdict can turn on. A
// recomputation ships each object's distance from the position it ran at,
// the anchor; by the triangle inequality an object whose anchor distance
// exceeds r + δ, δ being how far the query has moved from the anchor, is
// farther than r and need not be evaluated against the radius r of the
// kNN set (or, on a stale kNN set, of R). The verdicts are exactly those of
// evaluating every member; an update that happens to evaluate them all
// becomes the new anchor.
//
// Both queries keep the kNN set as a prefix of R: the kNN set is R[:k] at
// all times, and a re-rank sorts R in place. On the plane R is therefore in
// ascending distance as of the last recomputation or re-rank, whichever
// came last — not necessarily in the order it was fetched. I(R) is in no
// particular order (the order the recomputation's search frontier held it).
//
// In road networks (Section IV), validation requires shortest-path
// distances. Theorem 1 transfers the INS superset guarantee to network
// Voronoi diagrams, and Theorem 2 confines the validation search to the
// subnetwork covered by the Voronoi cells of the guard objects.
// NetworkQuery runs that search as netvor.GuardSearch — the subnetwork as
// a filter over the diagram's shared adjacency, never a graph of the
// session's own — and runs it once per update: guard objects arrive in
// ascending distance and each verdict is taken at the first one that
// decides it (k kNN members in a row: valid; a non-member: stale, and the
// same search continues to |R| hits for the re-rank; a hit outside R or an
// exhausted subnetwork: R is invalid, and the same search drops the filter
// and goes on over the full network as the recomputation, keeping the hits
// it settled before it first touched the subnetwork's boundary ring, which
// are exact). It moves the guard objects an update settles to the front of
// R, so R[:k] is in ascending network distance as of the last update and the
// rest of R as of the last recomputation or re-rank.
//
// A session that stays on one edge does not search at all (edgeAnchor). A
// position on an edge leaves it only through the edge's two endpoints, so its
// distance to every object is a linear function of the fraction along the
// edge and of the distances from the endpoints. The session keeps the ⌊ρk⌋
// nearest objects of each endpoint on the full network, and merging the two
// tables at its fraction yields the hits a full-network search from it would
// report, exactly, ties included. That merge is a second source behind the
// one validation loop: valid, re-rank and recomputation all come out of it,
// by the same code, and the recomputation on the edge is a table read too.
// The tables are taken on the session's second consecutive update on an edge,
// follow it across a vertex at the price of one more, and depend on the
// edge and the objects near it, not on the guard set: they outlive re-ranks,
// recomputations and Invalidate, and are dropped only by object churn — the
// removal of a member, an insert whose Voronoi neighbors include a member.
// A table belongs to a vertex, not to a session, so it is searched for once:
// the search scratch the shard's sessions share remembers it (netvor's table
// cache, bounded, judged by the same churn rule), and the next session through
// that vertex, or the same one on its way back, copies it.
//
// # One lifecycle
//
// The two query types run one session (session.go): the parameters and
// counters, the client state — one id list, R followed by I(R) — the last
// reported position, the epoch of the index it reads, and one Advance,
// Refresh, Invalidate and Epoch. A metric supplies only its judgement of one
// index mutation (the network's also judges the edge anchor), what it reads
// of a snapshot (the network's brings the search scratch's table store
// along, FollowTables), its Update and its recomputation.
//
// A query never changes the index it reads, and holds no pin on it.
// NewPlaneQuery and NewNetworkQuery create one over an index, which it
// reads until Advance hands it a later snapshot of an index.Store, through
// which all data updates go (Store.Apply), with the store's log of the
// mutations in between (Store.OpsSince). The query judges them against the
// index it still reads: it invalidates its state when one of them can
// affect it, or cannot be judged (a conservative op, or a window the log no
// longer covers), and recomputes at its next Update; Refresh recomputes at
// once, at the last reported position. This is the paper's lazy
// invalidation of the client state. Which snapshot a query reads, and when
// it moves, is the caller's: the serving engine's shard pins one snapshot,
// reads each window of the log once and advances all its sessions over it;
// a read-only caller never advances at all.
//
// # Slice ownership
//
// This is the one place the result-slice contract is defined; the facade,
// engine and HTTP layers inherit it rather than restating it.
//
//   - Update (both processors) returns a slice that aliases internal state
//     and is rewritten by the query's next Update/Advance/Refresh. It is the
//     hot-path result — one call per location update — so the processor
//     does not copy it; a caller that retains it beyond the next call, or
//     hands it to another goroutine, must copy it first. The serving engine copies
//     it once at its boundary (engine.UpdateResult.KNN is freshly
//     allocated), which is where results cross goroutines.
//   - The introspection accessors — Current, Prefetched, INS,
//     InfluenceSet — return freshly allocated copies the caller owns.
//     They are cold paths (rendering, debugging, examples), so the copy
//     is the right default and lets callers sort or mutate freely.
//   - AppendCurrent appends into a caller-owned buffer and allocates
//     nothing. It exists for the engine shards, which capture delta
//     baselines in a reused buffer; the copying accessors above remain the
//     public default.
package core
