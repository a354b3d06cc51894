package insq

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/svg"
	"repro/internal/trajectory"
	"repro/internal/vortree"
	"repro/internal/workload"
)

// Geometry primitives.
type (
	// Point is a location in the 2D Euclidean plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (the data space).
	Rect = geom.Rect
	// Polygon is a vertex loop; Voronoi cells are convex CCW polygons.
	Polygon = geom.Polygon
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect returns the rectangle spanning two corner points in any order.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// Indexes and diagrams.
type (
	// PlaneIndex is the plane index over the data objects: their order-1
	// Voronoi diagram with its neighbor lists, kept in sync under updates,
	// and an entry grid where searches without a hint start.
	PlaneIndex = vortree.Index
	// RoadNetwork is a planar undirected weighted graph with 2D embedding.
	RoadNetwork = roadnet.Graph
	// NetworkPosition is a location on a road network (edge + fraction).
	NetworkPosition = roadnet.Position
	// NetworkRoute is a vertex path sampled at constant speed.
	NetworkRoute = roadnet.Route
	// NetworkVoronoi is the network Voronoi diagram of the data objects.
	NetworkVoronoi = netvor.Diagram
)

// BuildPlaneIndex constructs the plane index over the data objects; returned
// ids parallel pts. Exact duplicates collapse to one object.
func BuildPlaneIndex(bounds Rect, pts []Point) (*PlaneIndex, []int, error) {
	return vortree.Build(bounds, 0, pts)
}

// BuildNetworkVoronoi computes the network Voronoi diagram of data objects
// located at the given network vertices.
func BuildNetworkVoronoi(g *RoadNetwork, siteVertices []int) (*NetworkVoronoi, error) {
	return netvor.Build(g, siteVertices)
}

// Query processors.
type (
	// PlaneQuery is the INS moving kNN query in 2D Euclidean space. Built
	// by NewPlaneQuery it reads a fixed index; the Engine's sessions are
	// PlaneQueries pinned to snapshots of a changing one.
	PlaneQuery = core.PlaneQuery
	// NetworkQuery is the INS moving kNN query in road networks, read-only
	// like PlaneQuery.
	NetworkQuery = core.NetworkQuery
	// Metrics holds the cost counters every processor accumulates.
	Metrics = metrics.Counters
)

// NewPlaneQuery creates an INS MkNN query with parameter k and prefetch
// ratio rho (>= 1; the demo uses 1.6).
func NewPlaneQuery(ix *PlaneIndex, k int, rho float64) (*PlaneQuery, error) {
	return core.NewPlaneQuery(ix, k, rho)
}

// NewNetworkQuery creates an INS MkNN query on a road network.
func NewNetworkQuery(d *NetworkVoronoi, k int, rho float64) (*NetworkQuery, error) {
	return core.NewNetworkQuery(d, k, rho)
}

// Baseline processors (the methods the paper compares against).
type (
	// NaivePlane recomputes the kNN set at every timestamp.
	NaivePlane = baseline.NaivePlane
	// OrderKCellPlane uses the strict order-k Voronoi cell safe region.
	OrderKCellPlane = baseline.OrderKCellPlane
	// VStarPlane approximates the V*-Diagram processor.
	VStarPlane = baseline.VStarPlane
	// NaiveNetwork recomputes the network kNN at every timestamp.
	NaiveNetwork = baseline.NaiveNetwork
	// FullNetworkINS is INS without the Theorem-2 subnetwork restriction.
	FullNetworkINS = baseline.FullNetworkINS
)

// NewNaivePlane returns the per-timestamp recomputation baseline.
func NewNaivePlane(ix *PlaneIndex, k int) (*NaivePlane, error) {
	return baseline.NewNaivePlane(ix, k)
}

// NewOrderKCellPlane returns the order-k Voronoi cell baseline; see the
// baseline package for the useINSCandidates knob.
func NewOrderKCellPlane(ix *PlaneIndex, k int, useINSCandidates bool) (*OrderKCellPlane, error) {
	return baseline.NewOrderKCellPlane(ix, k, useINSCandidates)
}

// NewVStarPlane returns the V*-Diagram baseline with x auxiliary objects.
func NewVStarPlane(ix *PlaneIndex, k, x int) (*VStarPlane, error) {
	return baseline.NewVStarPlane(ix, k, x)
}

// NewNaiveNetwork returns the per-timestamp network recomputation baseline.
func NewNaiveNetwork(d *NetworkVoronoi, k int) (*NaiveNetwork, error) {
	return baseline.NewNaiveNetwork(d, k)
}

// NewFullNetworkINS returns the Theorem-2 ablation processor.
func NewFullNetworkINS(d *NetworkVoronoi, k int, rho float64) (*FullNetworkINS, error) {
	return baseline.NewFullNetworkINS(d, k, rho)
}

// PrecomputedOrderKPlane is the order-k diagram precomputation baseline
// (reference [2] of the paper).
type PrecomputedOrderKPlane = baseline.PrecomputedOrderKPlane

// NewPrecomputedOrderKPlane enumerates the full order-k Voronoi diagram up
// front and answers updates by point location. Construction cost grows
// rapidly with k — the blow-up the paper argues makes this impractical.
func NewPrecomputedOrderKPlane(ix *PlaneIndex, k int) (*PrecomputedOrderKPlane, error) {
	return baseline.NewPrecomputedOrderKPlane(ix, k)
}

// Workload and trajectory generation.

// UniformPoints draws n points uniformly from bounds (deterministic in seed).
func UniformPoints(n int, bounds Rect, seed int64) []Point {
	return workload.Uniform(n, bounds, seed)
}

// ClusteredPoints draws n points from a Gaussian-cluster mixture.
func ClusteredPoints(n, clusters int, sigma float64, bounds Rect, seed int64) ([]Point, error) {
	return workload.Clustered(n, clusters, sigma, bounds, seed)
}

// GridPoints places ~n points on a jittered lattice.
func GridPoints(n int, bounds Rect, jitter float64, seed int64) []Point {
	return workload.Grid(n, bounds, jitter, seed)
}

// RandomWaypoint generates a random-waypoint trajectory of the given number
// of steps, moving stepLen per timestamp.
func RandomWaypoint(bounds Rect, steps int, stepLen float64, seed int64) []Point {
	return trajectory.RandomWaypoint(bounds, steps, stepLen, seed)
}

// LineTrajectory samples a straight movement from a to b in steps steps.
func LineTrajectory(a, b Point, steps int) ([]Point, error) {
	return trajectory.Line(a, b, steps)
}

// WaypointTrajectory samples a tour through waypoints at stepLen per step.
func WaypointTrajectory(pts []Point, stepLen float64) ([]Point, error) {
	return trajectory.Waypoints(pts, stepLen)
}

// GridNetwork generates a rows×cols grid road network; see roadnet for the
// jitter and detour knobs.
func GridNetwork(rows, cols int, bounds Rect, jitter, detour float64, seed int64) (*RoadNetwork, error) {
	return roadnet.GridNetwork(rows, cols, bounds, jitter, detour, seed)
}

// RandomPlanarNetwork generates a connected planar network from a Delaunay
// triangulation of random vertices.
func RandomPlanarNetwork(n int, bounds Rect, keep, detour float64, seed int64) (*RoadNetwork, error) {
	return roadnet.RandomPlanarNetwork(n, bounds, keep, detour, seed)
}

// RandomWalkRoute generates a network route of roughly the given length.
func RandomWalkRoute(g *RoadNetwork, start int, length float64, seed int64) (*NetworkRoute, error) {
	return roadnet.RandomWalkRoute(g, start, length, seed)
}

// VertexPosition returns the network position exactly at vertex v.
func VertexPosition(v int) NetworkPosition { return roadnet.VertexPosition(v) }

// Simulation driving.
type (
	// PlaneProcessor is any Euclidean moving kNN processor.
	PlaneProcessor = sim.PlaneProcessor
	// NetworkProcessor is any road-network moving kNN processor.
	NetworkProcessor = sim.NetworkProcessor
	// Report summarizes one simulation run.
	Report = sim.Report
)

// RunPlane drives a plane processor along a trajectory.
func RunPlane(p PlaneProcessor, traj []Point, observe func(step int, pos Point, knn []int)) (Report, error) {
	return sim.RunPlane(p, traj, observe)
}

// RunNetwork drives a network processor along a route at stepLen spacing.
func RunNetwork(p NetworkProcessor, route *NetworkRoute, stepLen float64, observe func(step int, pos NetworkPosition, knn []int)) (Report, error) {
	return sim.RunNetwork(p, route, stepLen, observe)
}

// FleetQuery is one moving query in a concurrent fleet simulation;
// queries sharing an index must share a shard.
type FleetQuery = sim.FleetQuery

// RunPlaneFleet simulates many moving queries concurrently (one MkNN
// query per LBS client), parallelizing across shards.
func RunPlaneFleet(queries []FleetQuery, workers int) ([]Report, error) {
	return sim.RunPlaneFleet(queries, workers)
}

// Serving engine (the online counterpart of the fleet simulation).
type (
	// Engine is the concurrent MkNN serving engine: session-sharded
	// workers reading shared, immutable, epoch-versioned index snapshots
	// (memory is O(objects) regardless of shard count); safe for
	// concurrent use.
	Engine = engine.Engine
	// EngineConfig parameterizes NewEngine.
	EngineConfig = engine.Config
	// SessionID identifies a live query session.
	SessionID = engine.SessionID
	// LocationUpdate is one session's new position within a batch.
	LocationUpdate = engine.LocationUpdate
	// NetworkLocationUpdate is one network session's new position.
	NetworkLocationUpdate = engine.NetworkLocationUpdate
	// UpdateResult is the per-session outcome of a batched update.
	UpdateResult = engine.UpdateResult
	// Mutation is one entry of an Engine.ApplyMutations batch: a plane
	// object insert (P) or removal (ID), or, with Network set, a network
	// site insert or removal at vertex ID.
	Mutation = index.Mutation
	// EngineStats is an aggregated engine serving snapshot.
	EngineStats = engine.Stats
	// SessionState is a point-in-time kNN snapshot of one live session.
	SessionState = engine.SessionState
	// LatencySummary condenses a latency histogram to reporting quantiles.
	LatencySummary = metrics.LatencySummary
)

// Continuous-query push streaming (Engine.Stream): incremental kNN result
// deltas delivered to subscribers instead of polled via UpdateBatchCtx.
type (
	// StreamBroker fans per-session result events out to subscribers with
	// bounded, coalescing queues; reach it via Engine.Stream().
	StreamBroker = stream.Broker
	// StreamSubscriber is one consumer's bounded event queue.
	StreamSubscriber = stream.Subscriber
	// StreamEvent is one push notification: the session's current kNN set
	// plus the membership delta against the previously published result.
	StreamEvent = stream.Event
	// StreamStats makes the broker's coalesce/drop policy observable.
	StreamStats = stream.Stats
)

// Engine errors, re-exported for errors.Is checks through the facade.
var (
	ErrEngineClosed   = engine.ErrClosed
	ErrUnknownSession = engine.ErrUnknownSession
	ErrUnknownObject  = engine.ErrUnknownObject
	ErrOutOfBounds    = engine.ErrOutOfBounds
	ErrNoPlaneIndex   = engine.ErrNoPlaneIndex
	ErrNoNetwork      = engine.ErrNoNetwork
)

// NewEngine starts a concurrent MkNN serving engine; see engine.Config for
// the sharding and dataset knobs. Callers must Close it.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Rendering (the demonstration frames).
type (
	// PlaneFrameOptions selects what a 2D demonstration frame shows.
	PlaneFrameOptions = svg.PlaneFrameOptions
	// NetworkFrameOptions selects what a network frame shows.
	NetworkFrameOptions = svg.NetworkFrameOptions
)

// RenderPlaneFrame renders one timestamp of the 2D-plane demonstration as
// an SVG document.
func RenderPlaneFrame(ix *PlaneIndex, q *PlaneQuery, pos Point, opts PlaneFrameOptions) (string, error) {
	return svg.PlaneFrame(ix, q, pos, opts)
}

// RenderNetworkFrame renders one timestamp of the road-network
// demonstration as an SVG document.
func RenderNetworkFrame(d *NetworkVoronoi, q *NetworkQuery, pos NetworkPosition, opts NetworkFrameOptions) string {
	return svg.NetworkFrame(d, q, pos, opts)
}
