package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// benchEngine builds an engine over nObjects uniform points.
func benchEngine(b *testing.B, nObjects, shards int) *Engine {
	b.Helper()
	e, err := New(Config{
		Shards:  shards,
		Bounds:  testBounds,
		Objects: workload.Uniform(nObjects, testBounds, 42),
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// heapMB is the live heap after two collections, in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkEngineIndexMemory reports the resident plane heap of an engine,
// per shard count, once every shard has served a recomputation — read right
// after New it would miss the search scratch, the one term that multiplies
// by the shard count. With the shared snapshot store the reported index_MB
// must stay flat as shards grow (O(objects)); the replica design it replaced
// grew it linearly (O(shards × objects)). scratch_KB_per_shard is what the
// first recomputation added per shard: the scratch, sized by the search,
// and the guard list of the one session that drove it.
func BenchmarkEngineIndexMemory(b *testing.B) {
	const nObjects = 20000
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				objects := workload.Uniform(nObjects, testBounds, 42)
				before := heapMB()
				e, err := New(Config{Shards: shards, Bounds: testBounds, Objects: objects})
				if err != nil {
					b.Fatal(err)
				}
				// Session ids count up and shard by id: one session a shard.
				batch := make([]LocationUpdate, shards)
				for j := range batch {
					sid, err := e.CreateSession(8, 1.6)
					if err != nil {
						b.Fatal(err)
					}
					batch[j] = LocationUpdate{Session: sid, Pos: geom.Pt(float64(j)*50+25, 500)}
				}
				built := heapMB()
				if _, err := updateBatch(e, batch); err != nil {
					b.Fatal(err)
				}
				served := heapMB()
				b.ReportMetric(served-before, "index_MB")
				b.ReportMetric((served-built)*1024/float64(shards), "scratch_KB_per_shard")
				e.Close()
			}
		})
	}
}

// BenchmarkEngineNetworkMemory reports what the road side of an engine keeps
// on the heap for a 256x256 street grid with 15 % of its vertices sites: the
// graph (coordinates and CSR), the engine built over it (the diagram: labels
// and the sites' neighbor lists; and each shard's first 1,024 table-ring
// entries, 12 KB) and, per shard, the rest of the search scratch once
// every shard has served network updates — the part that multiplies by the
// shard count, sized by the widest search it ran and the table ring it drew
// from the engine's budget, nothing by the graph.
func BenchmarkEngineNetworkMemory(b *testing.B) {
	const (
		grid   = 256
		shards = 8
	)
	for i := 0; i < b.N; i++ {
		empty := heapMB()
		g, err := workload.Network(grid, testBounds, 42)
		if err != nil {
			b.Fatal(err)
		}
		sites, err := workload.NetworkSites(g, g.NumVertices()*15/100, 43) // a prefix of a whole permutation
		if err != nil {
			b.Fatal(err)
		}
		sites = append([]int(nil), sites...)
		g.CSR()
		graph := heapMB()
		e, err := New(Config{Shards: shards, Network: g, NetworkSites: sites})
		if err != nil {
			b.Fatal(err)
		}
		built := heapMB()
		batch := make([]NetworkLocationUpdate, 16*shards)
		for j := range batch {
			sid, err := e.CreateNetworkSession(8, 1.6)
			if err != nil {
				b.Fatal(err)
			}
			batch[j] = NetworkLocationUpdate{Session: sid, Pos: roadnet.VertexPosition(j * g.NumVertices() / len(batch))}
		}
		if _, err := updateNetworkBatch(e, batch); err != nil {
			b.Fatal(err)
		}
		served := heapMB()
		b.ReportMetric(graph-empty, "graph_MB")
		b.ReportMetric(built-graph, "diagram_MB")
		b.ReportMetric((served-built)/shards, "scratch_MB_per_shard")
		e.Close()
	}
}

// BenchmarkEngineDataUpdate measures object insert/remove throughput with
// live sessions present. The store applies each mutation once
// (copy-on-write on the single canonical index), so ns/op must not grow
// with the shard count — the property the replica design's broadcast-apply
// lacked.
func BenchmarkEngineDataUpdate(b *testing.B) {
	const (
		nObjects  = 5000
		nSessions = 64
	)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, nObjects, shards)
			defer e.Close()
			sids := make([]SessionID, nSessions)
			batch := make([]LocationUpdate, nSessions)
			for i := range sids {
				sid, err := e.CreateSession(5, 1.6)
				if err != nil {
					b.Fatal(err)
				}
				sids[i] = sid
				batch[i] = LocationUpdate{Session: sid, Pos: geom.Pt(float64(i%100)*10+5, float64(i%50)*20+5)}
			}
			if _, err := updateBatch(e, batch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var inserted []int
			for i := 0; i < b.N; i++ {
				if len(inserted) > 32 {
					id := inserted[0]
					inserted = inserted[1:]
					if err := removeObject(e, id); err != nil {
						b.Fatal(err)
					}
					continue
				}
				p := geom.Pt(float64((i*131)%1000), float64((i*373)%1000))
				id, err := insertObject(e, p)
				if err != nil {
					b.Fatal(err)
				}
				inserted = append(inserted, id)
			}
		})
	}
}

// BenchmarkEngineLocationUpdate measures the serving hot path: one batched
// location update round per iteration, all sessions moving.
func BenchmarkEngineLocationUpdate(b *testing.B) {
	const (
		nObjects  = 20000
		nSessions = 256
	)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, nObjects, shards)
			defer e.Close()
			sids := make([]SessionID, nSessions)
			for i := range sids {
				sid, err := e.CreateSession(5, 1.6)
				if err != nil {
					b.Fatal(err)
				}
				sids[i] = sid
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]LocationUpdate, nSessions)
				for j, sid := range sids {
					batch[j] = LocationUpdate{
						Session: sid,
						Pos:     geom.Pt(float64((i*7+j*13)%1000), float64((i*11+j*17)%1000)),
					}
				}
				results, err := updateBatch(e, batch)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkEngineNetworkTraffic serves 1,024 network sessions on a 448x448
// street grid with 30k sites over 8 shards, as the road-network serving
// workload does: k from {1, 5, 10, 20}, half the sessions crawling 2 units an
// update and half striding 16 along a 256-position route walked back and
// forth, batches of 64 consecutive sessions, and one site insert or removal
// every 48 batches. How the (k, speed) classes fall on the shards is the
// parameter. With classes=aliased session i takes k = ks[i%4] and crawls iff
// (i/4)%2 == 0; shards take session ids modulo 8, so each shard serves one
// class, and the shards' endpoint-table demand differs by class. With
// classes=shuffled each session draws its k and speed at random, so every
// shard serves the same mix. One op is one batch; after one warm-up sweep of
// every route, it reports search steps (distance evaluations, node visits
// and edge relaxations), process CPU and wall time per update.
func BenchmarkEngineNetworkTraffic(b *testing.B) {
	const (
		grid, nSites, nSessions = 448, 30000, 1024
		shards, batchLen        = 8, 64
		routeLen, mutEvery      = 256, 48
	)
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))
	ks := []int{1, 5, 10, 20}
	for _, mix := range []string{"aliased", "shuffled"} {
		b.Run("classes="+mix, func(b *testing.B) {
			g, err := workload.Network(grid, bounds, 1)
			if err != nil {
				b.Fatal(err)
			}
			sites, err := workload.NetworkSites(g, nSites, 2)
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(Config{Shards: shards, Network: g, NetworkSites: append([]int(nil), sites...)})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			rng := rand.New(rand.NewSource(3))
			sids := make([]SessionID, nSessions)
			pos := make([][]roadnet.Position, nSessions)
			for i := range sids {
				k, step := ks[i%len(ks)], 16.0
				if (i/len(ks))%2 == 0 {
					step = 2
				}
				if mix == "shuffled" {
					k, step = ks[rng.Intn(len(ks))], []float64{2, 16}[rng.Intn(2)]
				}
				if sids[i], err = e.CreateNetworkSession(k, 1.6); err != nil {
					b.Fatal(err)
				}
				route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), step*routeLen, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < routeLen; j++ {
					pos[i] = append(pos[i], route.PositionAt(step*float64(j)))
				}
			}
			live := make(map[int]bool, nSites)
			for _, v := range sites {
				live[v] = true
			}
			var inserted []int
			at, dir, next := make([]int, nSessions), 1, 0
			batch := make([]NetworkLocationUpdate, batchLen)
			serve := func(op int) {
				for j := range batch {
					i := next + j
					batch[j] = NetworkLocationUpdate{Session: sids[i], Pos: pos[i][at[i]]}
					at[i] += dir
				}
				if next += batchLen; next == nSessions {
					next = 0
					if at[0] == 0 || at[0] == routeLen-1 {
						dir = -dir
					}
				}
				results, err := updateNetworkBatch(e, batch)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				if op%mutEvery != 0 {
					return
				}
				if op/mutEvery%2 == 1 && len(inserted) > 0 {
					v := inserted[0]
					inserted = inserted[1:]
					delete(live, v)
					if err := removeNetworkObject(e, v); err != nil {
						b.Fatal(err)
					}
					return
				}
				v := rng.Intn(g.NumVertices())
				for live[v] {
					v = rng.Intn(g.NumVertices())
				}
				live[v] = true
				inserted = append(inserted, v)
				if _, err := insertNetworkObject(e, v); err != nil {
					b.Fatal(err)
				}
			}
			for op := 0; op < routeLen*nSessions/batchLen; op++ {
				serve(op)
			}
			quiesce(b, e)
			before, err := e.Stats()
			if err != nil {
				b.Fatal(err)
			}
			cpu0 := cpuTime()
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				serve(op)
			}
			b.StopTimer()
			cpu := cpuTime() - cpu0
			after, err := e.Stats()
			if err != nil {
				b.Fatal(err)
			}
			x, y := before.Counters, after.Counters
			updates := float64(y.Timestamps - x.Timestamps)
			steps := (y.DistanceCalcs - x.DistanceCalcs) + (y.NodeVisits - x.NodeVisits) + (y.EdgeRelaxations - x.EdgeRelaxations)
			b.ReportMetric(float64(steps)/updates, "steps/update")
			b.ReportMetric(float64(cpu.Microseconds())/updates, "cpu_us/update")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/updates, "wall_us/update")
		})
	}
}
