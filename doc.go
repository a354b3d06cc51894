// Package insq is a Go reproduction of "INSQ: An Influential Neighbor Set
// Based Moving kNN Query Processing System" (Li, Gu, Qi, Yu, Zhang, Deng —
// ICDE 2016), including the underlying Influential Neighbor Set (INS)
// algorithm for moving k-nearest-neighbor (MkNN) queries in both 2D
// Euclidean space and road networks, the safe-region baselines it is
// evaluated against, and the demonstration and experiment tooling.
//
// The core idea: rather than recomputing the kNN set at every location
// update, or maintaining an explicit safe region, the INS algorithm keeps a
// small set of safe guarding objects — the order-1 Voronoi neighbors of the
// current kNN members. The kNN set remains provably valid while every kNN
// member is closer to the query than every guarding object, a check that is
// linear in k; and because the guarding objects implicitly delimit the
// order-k Voronoi cell (the largest possible safe region), recomputations
// are as infrequent as theoretically possible.
//
// # Quick start (2D Euclidean)
//
//	objects := insq.UniformPoints(10000, insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000)), 42)
//	ix, _, err := insq.BuildPlaneIndex(bounds, objects)
//	q, err := insq.NewPlaneQuery(ix, 5, 1.6) // k=5, prefetch ratio ρ=1.6
//	for _, pos := range insq.RandomWaypoint(bounds, 1000, 2.0, 7) {
//	    knn, err := q.Update(pos) // ids of the 5 nearest objects
//	    ...
//	}
//
// # Road networks
//
//	g, err := insq.GridNetwork(64, 64, bounds, 0.2, 0.3, 1)
//	d, err := insq.BuildNetworkVoronoi(g, siteVertexIDs)
//	q, err := insq.NewNetworkQuery(d, 5, 1.6)
//	route, err := insq.RandomWalkRoute(g, 0, 50000, 2)
//	for dist := 0.0; dist <= route.Length(); dist += 5 {
//	    knn, err := q.Update(route.PositionAt(dist))
//	    ...
//	}
//
// A query never changes the index it reads: NewPlaneQuery and
// NewNetworkQuery serve one fixed index or diagram. Data updates (objects
// inserted or removed while queries move) go through the serving engine
// below, whose sessions run the same queries over an index store's
// snapshots and move to the newest after every update, recomputing only
// when it can affect them.
//
// # Serving
//
// Beyond the single-query processors, the package exposes a concurrent
// serving engine (session-sharded, safe for concurrent use) that maintains
// thousands of live MkNN sessions with batched location updates and online
// data updates:
//
//	e, err := insq.NewEngine(insq.EngineConfig{Shards: 8, Bounds: bounds, Objects: objects})
//	sid, err := e.CreateSession(5, 1.6)
//	results, err := e.UpdateBatchCtx(ctx, []insq.LocationUpdate{{Session: sid, Pos: pos}})
//	ids, err := e.ApplyMutations(ctx, []insq.Mutation{{Insert: true, P: insq.Pt(10, 20)}})
//
// cmd/insqd fronts the engine with an HTTP/JSON API and a binary streaming
// ingest path; the repository benchmark (benchmark/) drives it with
// synthetic moving clients.
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the reproduction results.
package insq
