package netvor

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/roadnet"
)

// heapLive is the live heap after two collections.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// adjEntries counts the adjacency entries d holds, and checks each page's
// occupancy word against its entry list.
func adjEntries(t *testing.T, d *Diagram) (n int) {
	t.Helper()
	for i, pg := range d.adj {
		if bits.OnesCount64(pg.has) != len(pg.entries) {
			t.Fatalf("adjacency page %d: %d bits set for %d entries", i, bits.OnesCount64(pg.has), len(pg.entries))
		}
		for _, e := range pg.entries {
			if len(e.sites) == 0 || len(e.sites) != len(e.counts) {
				t.Fatalf("adjacency page %d holds an entry with %d neighbors, %d counts", i, len(e.sites), len(e.counts))
			}
		}
		n += len(pg.entries)
	}
	return n
}

// published is a frozen diagram version and what it answered when it froze.
type published struct {
	d         *Diagram
	sites     []int
	neighbors [][]int
}

func publish(t *testing.T, d *Diagram) published {
	t.Helper()
	p := published{d: d, sites: slices.Clone(d.Sites())}
	for _, s := range p.sites {
		ns, err := d.Neighbors(s)
		if err != nil {
			t.Fatal(err)
		}
		p.neighbors = append(p.neighbors, slices.Clone(ns))
	}
	return p
}

func (p published) check(t *testing.T, cycle int) {
	t.Helper()
	if !slices.Equal(p.d.Sites(), p.sites) {
		t.Fatalf("cycle %d: a frozen version's site list changed", cycle)
	}
	for i, s := range p.sites {
		if ns, err := p.d.Neighbors(s); err != nil || !slices.Equal(ns, p.neighbors[i]) {
			t.Fatalf("cycle %d: frozen Neighbors(%d) = %v (%v), published as %v", cycle, s, ns, err, p.neighbors[i])
		}
	}
	if got := adjEntries(t, p.d); got != len(p.sites) {
		t.Fatalf("cycle %d: a frozen version holds %d adjacency entries for %d sites", cycle, got, len(p.sites))
	}
}

// TestAdjacencyChurnLeavesNoEntryBehind: over 20k insert/remove cycles on a
// 64x64 grid, branching every 50, the head holds one adjacency entry per live
// site and none for a vertex that stopped being one; the frozen ancestors
// (the last four are kept) answer Neighbors as they did when they were
// published, whatever the head did to the pages it shared with them; and the
// live heap is flat from cycle 2k on.
func TestAdjacencyChurnLeavesNoEntryBehind(t *testing.T) {
	g, err := roadnet.GridNetwork(64, 64, testBounds, 0.2, 0.3, 61)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	n := g.NumVertices()
	d, err := Build(g, rng.Perm(n)[:n*15/100])
	if err != nil {
		t.Fatal(err)
	}
	var frozen []published
	var heapAt2k uint64
	for cycle := 1; cycle <= 20000; cycle++ {
		v := rng.Intn(n)
		for d.IsSite(v) {
			v = rng.Intn(n)
		}
		if err := d.Insert(v); err != nil {
			t.Fatal(err)
		}
		gone := d.Sites()[rng.Intn(d.Len())]
		if err := d.Remove(gone); err != nil {
			t.Fatal(err)
		}
		if pg := d.adj[gone/adjPageSize]; pg.has>>(gone%adjPageSize)&1 != 0 {
			t.Fatalf("cycle %d: removed site %d kept its adjacency entry", cycle, gone)
		}
		if cycle%50 == 0 {
			if len(frozen) == 4 {
				frozen[0].check(t, cycle)
				frozen = frozen[1:]
			}
			frozen = append(frozen, publish(t, d))
			d = d.Branch()
		}
		if cycle%1000 == 0 {
			if got := adjEntries(t, d); got != d.Len() {
				t.Fatalf("cycle %d: %d adjacency entries for %d sites", cycle, got, d.Len())
			}
		}
		if cycle == 2000 {
			heapAt2k = heapLive()
		}
	}
	end := heapLive()
	for _, p := range frozen {
		p.check(t, 20000)
	}
	// Flat: what churn leaves behind would be some bytes a cycle, 18k times.
	if slack := heapAt2k/10 + 64<<10; end > heapAt2k+slack {
		t.Fatalf("live heap %d B at cycle 2k, %d B at cycle 20k", heapAt2k, end)
	}
}

// TestNetworkHeapBudget holds the road side to its storage budget on a
// 128x128 grid with 15 % of the vertices sites, the benchmark's shape: the
// graph and its diagram retain at most 121 bytes per vertex (coordinates 16,
// CSR ~52, labels 12, neighbor lists of the sites ~25), and a search scratch
// that has served a kNN search at most 0.5: it holds nothing sized by the
// graph, only by the search. The scratch figure is the mean of eight, one per
// shard of the benchmark's engine, which also averages out the collector's
// own few kilobytes.
func TestNetworkHeapBudget(t *testing.T) {
	const grid = 128
	before := heapLive()
	g, err := roadnet.GridNetwork(grid, grid, testBounds, 0.2, 0.3, 71)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	d, err := Build(g, rand.New(rand.NewSource(72)).Perm(n)[:n*15/100])
	if err != nil {
		t.Fatal(err)
	}
	index := heapLive()
	if perVertex := float64(index-before) / float64(n); perVertex > 121 {
		t.Errorf("graph + diagram retain %.1f B per vertex, budget 121", perVertex)
	} else {
		t.Logf("graph + diagram: %.1f B per vertex", perVertex)
	}
	scs := make([]*SearchScratch, 8)
	for i := range scs {
		scs[i] = new(SearchScratch)
		ids, _, _ := d.AppendKNN(roadnet.VertexPosition(n/2), 16, nil, nil, scs[i])
		if len(ids) != 16 {
			t.Fatalf("AppendKNN found %d sites", len(ids))
		}
	}
	if perVertex := float64(heapLive()-index) / float64(len(scs)*n); perVertex > 0.5 {
		t.Errorf("an idle search scratch retains %.2f B per vertex, budget 0.5", perVertex)
	} else {
		t.Logf("idle scratch: %.2f B per vertex", perVertex)
	}
	runtime.KeepAlive(scs)
	runtime.KeepAlive(d)
}
