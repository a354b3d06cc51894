package netvor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// refHeap is the reference frontier: a binary min-heap over owner labels in
// (distance, site id) order, under which each entry that captures its vertex
// is already final.
type refHeap []ownerItem

func (h refHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].site < h[j].site
}

func (h *refHeap) push(it ownerItem) {
	*h = append(*h, it)
	for i := len(*h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		(*h)[i], (*h)[(i-1)/2] = (*h)[(i-1)/2], (*h)[i]
	}
}

func (h *refHeap) pop() ownerItem {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	for i := 0; ; {
		m := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(s) && s.less(c, m) {
				m = c
			}
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// refBuild is Build over the reference heap: a multi-source Dijkstra that
// pops in (distance, site id) order and captures at pop, with the adjacency
// counted edge by edge through incPair.
func refBuild(t *testing.T, g *roadnet.Graph, sites []int) *Diagram {
	t.Helper()
	d := &Diagram{g: g, sites: slices.Sorted(slices.Values(sites))}
	d.initPages(g.NumVertices())
	var h refHeap
	for _, s := range d.sites {
		d.setLabel(s, s, 0)
		h.push(ownerItem{v: int32(s), site: int32(s)})
	}
	c := g.CSR()
	for len(h) > 0 {
		it := h.pop()
		if it.v != it.site {
			o, dd := d.label(int(it.v))
			if !captures(it, o, dd) {
				continue
			}
			d.setLabel(int(it.v), int(it.site), it.d)
		}
		for e := c.Off[it.v]; e < c.Off[it.v+1]; e++ {
			next := ownerItem{v: c.To[e], d: it.d + c.W[e], site: it.site}
			if uo, ud := d.label(int(next.v)); captures(next, uo, ud) {
				h.push(next)
			}
		}
	}
	g.Edges(func(u, v int, _ float64) {
		a, _ := d.label(u)
		b, _ := d.label(v)
		d.incPair(a, b)
	})
	return d
}

// sameDiagram fails unless got and want agree bit for bit: sites, every
// vertex's owner and the bits of its distance, and every site's neighbor
// and support lists.
func sameDiagram(t *testing.T, step int, got, want *Diagram) {
	t.Helper()
	if !slices.Equal(got.Sites(), want.Sites()) {
		t.Fatalf("step %d: sites %v, reference %v", step, got.Sites(), want.Sites())
	}
	for v := range got.g.NumVertices() {
		o, dd := got.label(v)
		wo, wd := want.label(v)
		if o != wo || math.Float64bits(dd) != math.Float64bits(wd) {
			t.Fatalf("step %d: vertex %d labelled (%d, %v), reference (%d, %v)", step, v, o, dd, wo, wd)
		}
	}
	for _, s := range want.Sites() {
		e, we := got.adjAt(s), want.adjAt(s)
		if !slices.Equal(e.sites, we.sites) || !slices.Equal(e.counts, we.counts) {
			t.Fatalf("step %d: site %d has neighbors %v supports %v, reference %v %v", step, s, e.sites, e.counts, we.sites, we.counts)
		}
	}
}

// reweighted copies g with every edge's weight replaced by w(weight).
func reweighted(t *testing.T, g *roadnet.Graph, w func(float64) float64) *roadnet.Graph {
	t.Helper()
	out := roadnet.NewGraph()
	for v := range g.NumVertices() {
		out.AddVertex(g.Point(v))
	}
	var err error
	g.Edges(func(u, v int, weight float64) {
		if err == nil {
			err = out.AddEdgeWeight(u, v, w(weight))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFrontierMatchesHeapReference holds the bucket frontier to the
// (distance, site)-ordered heap it replaced: on each network, Build and then
// every step of 2,000 random site inserts and removals must leave labels and
// adjacency bit-identical to the reference built from scratch. The networks
// cover zero-weight edges, sites at distance zero from each other, vertices
// no site reaches, ties everywhere, a least weight so small that the bucket
// width is raised to keep relaxations in the ring (1e-12 beside ~1e3), and a
// path long enough that the seeds of a removal wait in the overflow list.
func TestFrontierMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	planar := func(n int, seed int64) *roadnet.Graph { return diffGraph(t, n, seed) }
	grid := func(side int, w func() float64) *roadnet.Graph {
		g := roadnet.NewGraph()
		for i := range side * side {
			g.AddVertex(geom.Pt(float64(i%side), float64(i/side)))
		}
		for i := range side * side {
			for _, j := range []int{i + 1, i + side} {
				if (j == i+1 && i%side == side-1) || j >= side*side {
					continue
				}
				if err := g.AddEdgeWeight(i, j, w()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}
	cases := []struct {
		name     string
		g        func() *roadnet.Graph
		min, max int // site count range kept by the churn
	}{
		{"planar_zero_weights", func() *roadnet.Graph {
			return reweighted(t, planar(300, 21), func(w float64) float64 {
				if rng.Intn(4) == 0 {
					return 0
				}
				return w
			})
		}, 4, 40},
		{"coincident_grid", func() *roadnet.Graph { return coincidentGrid(t, rng, 9) }, 3, 12},
		{"disconnected", func() *roadnet.Graph {
			g := roadnet.NewGraph()
			for part := range 3 {
				sub := planar(80, int64(30+part))
				base := g.NumVertices()
				for v := range sub.NumVertices() {
					g.AddVertex(sub.Point(v))
				}
				sub.Edges(func(u, v int, w float64) {
					if err := g.AddEdgeWeight(base+u, base+v, w); err != nil {
						t.Fatal(err)
					}
				})
			}
			return g
		}, 1, 10},
		{"all_ties", func() *roadnet.Graph { return grid(16, func() float64 { return 1 }) }, 4, 30},
		{"tiny_beside_large", func() *roadnet.Graph {
			return reweighted(t, planar(300, 22), func(float64) float64 {
				if rng.Intn(5) == 0 {
					return 1e-12
				}
				return 900 + 200*rng.Float64()
			})
		}, 4, 40},
		{"long_path", func() *roadnet.Graph {
			g := roadnet.NewGraph()
			for i := range 1500 {
				g.AddVertex(geom.Pt(float64(i), 0))
				if i > 0 {
					if err := g.AddEdgeWeight(i-1, i, 0.5+10*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
			return g
		}, 2, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			n := g.NumVertices()
			d, err := Build(g, rng.Perm(n)[:tc.min+1])
			if err != nil {
				t.Fatal(err)
			}
			sameDiagram(t, 0, d, refBuild(t, g, d.Sites()))
			for step := 1; step <= 2000; step++ {
				if d.Len() >= tc.max || (d.Len() > tc.min && rng.Intn(2) == 0) {
					if err := d.Remove(d.Sites()[rng.Intn(d.Len())]); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				} else {
					v := rng.Intn(n)
					for d.IsSite(v) {
						v = rng.Intn(n)
					}
					if err := d.Insert(v); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				sameDiagram(t, step, d, refBuild(t, g, d.Sites()))
			}
		})
	}
}
