package engine

import (
	"fmt"
	"runtime"
	"testing"

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
// and the sites' neighbor lists) and, per shard, the search scratch once
// every shard has served network updates — the part that multiplies by the
// shard count, sized by 4 bytes per vertex plus what the searches touched.
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
