package netvor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// refAdjacency derives the Voronoi adjacency of d's labels the way
// buildAdjacency did before it sorted by counting: every boundary edge keyed
// by its (lower, higher) owner pair, the keys put in order by a comparison
// sort, each run of equal keys one adjacency supported by its length, and the
// runs appended to both sites' lists in key order.
func refAdjacency(d *Diagram) map[int]adjEntry {
	c := d.g.CSR()
	var pairs []uint64
	for u := range len(c.Off) - 1 {
		a, _ := d.label(u)
		if a < 0 {
			continue
		}
		for _, x := range c.To[c.Off[u]:c.Off[u+1]] {
			if b, _ := d.label(int(x)); b > a {
				pairs = append(pairs, uint64(a)<<32|uint64(b))
			}
		}
	}
	slices.Sort(pairs)
	out := map[int]adjEntry{}
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		a, b := int(pairs[i]>>32), int(uint32(pairs[i]))
		ea, eb := out[a], out[b]
		ea.sites, ea.counts = append(ea.sites, b), append(ea.counts, j-i)
		eb.sites, eb.counts = append(eb.sites, a), append(eb.counts, j-i)
		out[a], out[b] = ea, eb
		i = j
	}
	return out
}

// TestAdjacencySortMatchesComparisonSort: Build's adjacency, whose boundary
// keys are sorted by counting, holds for every vertex exactly the neighbor
// and support lists the comparison-sorted reference derives from the same
// labels — on the benchmark's 448x448 street grid with 30,000 sites, and on
// random planar networks and a grid where zero-weight edges put sites at
// distance zero from one another.
func TestAdjacencySortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	street, err := workload.Network(448, geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000)), 1)
	if err != nil {
		t.Fatal(err)
	}
	streetSites, err := workload.NetworkSites(street, 30000, 2)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := func(g *roadnet.Graph) *roadnet.Graph {
		return reweighted(t, g, func(w float64) float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return w
		})
	}
	cases := []struct {
		name  string
		g     *roadnet.Graph
		sites []int
	}{
		{"grid448", street, streetSites},
		{"planar_zero_weights", zeroed(diffGraph(t, 600, 51)), nil},
		{"planar_dense_sites", zeroed(diffGraph(t, 300, 52)), nil},
		{"coincident_grid", coincidentGrid(t, rng, 24), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumVertices()
			sites := tc.sites
			if sites == nil {
				sites = rng.Perm(n)[:n/(3+rng.Intn(5))]
			}
			d, err := Build(tc.g, sites)
			if err != nil {
				t.Fatal(err)
			}
			want := refAdjacency(d)
			if len(want) == 0 {
				t.Fatal("no adjacency to compare")
			}
			for v := range n {
				got, w := d.adjAt(v), want[v]
				if !slices.Equal(got.sites, w.sites) || !slices.Equal(got.counts, w.counts) {
					t.Fatalf("vertex %d: neighbors %v supports %v, comparison sort says %v %v", v, got.sites, got.counts, w.sites, w.counts)
				}
			}
		})
	}
}

// TestAdjacencySortPairs: sortPairs leaves any keys with both halves below n
// — duplicates, a single distinct value, halves in either order, empty — in
// the order a comparison sort does.
func TestAdjacencySortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 2, 7, 1000, 1 << 18} {
		for _, m := range []int{0, 1, 5, 4000} {
			keys := make([]uint64, m)
			for i := range keys {
				keys[i] = uint64(rng.Intn(n))<<32 | uint64(rng.Intn(n))
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			sortPairs(keys, n)
			for i := range keys {
				if keys[i] != want[i] {
					t.Fatalf("n=%d, %d keys: key %d is %#x, want %#x", n, m, i, keys[i], want[i])
				}
			}
		}
	}
}
