package index

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

func networkStore(t *testing.T, grid, nSites int) (*Store, *roadnet.Graph, []int) {
	t.Helper()
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	g, err := workload.Network(grid, bounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, nSites, 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(Config{Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	return st, g, sites
}

func freeVertex(st *Store, g *roadnet.Graph, rng *rand.Rand) int {
	for {
		v := rng.Intn(g.NumVertices())
		if !st.Current().Network().IsSite(v) {
			return v
		}
	}
}

// TestStoreNetworkApply: site mutations publish epochs, log network ops
// with captured neighbor lists, and leave older snapshots untouched.
func TestStoreNetworkApply(t *testing.T) {
	st, g, sites := networkStore(t, 12, 20)
	defer st.Close()
	rng := rand.New(rand.NewSource(9))

	old := st.Current()
	probe := roadnet.VertexPosition(freeVertex(st, g, rng))
	oldKNN, _ := old.Network().KNNWithDistances(probe, 3)

	v := freeVertex(st, g, rng)
	if err := st.InsertSite(v); err != nil {
		t.Fatal(err)
	}
	if got := st.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	if !st.Current().Network().IsSite(v) {
		t.Fatalf("current snapshot misses inserted site %d", v)
	}
	if old.Network().IsSite(v) {
		t.Fatalf("old snapshot gained site %d", v)
	}
	if err := st.RemoveSite(sites[0]); err != nil {
		t.Fatal(err)
	}
	if old.Network().Len() != len(sites) {
		t.Fatalf("old snapshot site count changed to %d", old.Network().Len())
	}
	if gotKNN, _ := old.Network().KNNWithDistances(probe, 3); !equalIntsIdx(gotKNN, oldKNN) {
		t.Fatalf("old snapshot answers changed: %v, was %v", gotKNN, oldKNN)
	}

	ops, ok := st.OpsSince(0, 2)
	if !ok || len(ops) != 2 {
		t.Fatalf("OpsSince(0,2) = %v, %v", ops, ok)
	}
	if !ops[0].Network || !ops[0].Insert || ops[0].ID != v || ops[0].Conservative {
		t.Fatalf("insert op = %+v", ops[0])
	}
	if ops[0].Neighbors == nil {
		t.Fatal("insert op has no captured neighbor list")
	}
	if !ops[1].Network || ops[1].Insert || ops[1].ID != sites[0] || ops[1].Neighbors == nil {
		t.Fatalf("remove op = %+v", ops[1])
	}
}

// TestStoreNetworkValidation: bad batches are rejected up front with the
// matching sentinel error and publish nothing.
func TestStoreNetworkValidation(t *testing.T) {
	st, g, sites := networkStore(t, 8, 4)
	defer st.Close()

	cases := []struct {
		name string
		muts []Mutation
		want error
	}{
		{"dup site", []Mutation{{Network: true, Insert: true, ID: sites[0]}}, ErrSiteExists},
		{"dup within batch", []Mutation{
			{Network: true, Insert: true, ID: firstFree(st, g)},
			{Network: true, Insert: true, ID: firstFree(st, g)},
		}, ErrSiteExists},
		{"unknown site", []Mutation{{Network: true, ID: firstFree(st, g)}}, ErrUnknownSite},
		{"vertex out of range", []Mutation{{Network: true, Insert: true, ID: g.NumVertices()}}, ErrOutOfBounds},
		{"negative vertex", []Mutation{{Network: true, Insert: true, ID: -1}}, ErrOutOfBounds},
		{"drain to zero", []Mutation{
			{Network: true, ID: sites[0]},
			{Network: true, ID: sites[1]},
			{Network: true, ID: sites[2]},
			{Network: true, ID: sites[3]},
		}, ErrLastSite},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := st.Apply(c.muts); !errors.Is(err, c.want) {
				t.Fatalf("Apply = %v, want %v", err, c.want)
			}
		})
	}
	if st.Epoch() != 0 {
		t.Fatalf("rejected batches published epochs: %d", st.Epoch())
	}

	// Remove-then-reinsert of the same vertex within one batch is
	// well-defined and must pass validation.
	if _, err := st.Apply([]Mutation{
		{Network: true, ID: sites[0]},
		{Network: true, Insert: true, ID: sites[0]},
	}); err != nil {
		t.Fatalf("remove+reinsert batch: %v", err)
	}
	if st.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", st.Epoch())
	}

	// A plane mutation on a network-only store fails.
	if _, err := st.Apply([]Mutation{{Insert: true, P: geom.Pt(1, 1)}}); !errors.Is(err, ErrNoPlane) {
		t.Fatalf("plane mutation on network store = %v, want ErrNoPlane", err)
	}
}

func firstFree(st *Store, g *roadnet.Graph) int {
	for v := 0; v < g.NumVertices(); v++ {
		if !st.Current().Network().IsSite(v) {
			return v
		}
	}
	panic("no free vertex")
}

// TestStoreMixedBatch: one batch carrying both plane and network
// mutations branches each side once and publishes a single snapshot
// covering both.
func TestStoreMixedBatch(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	g, err := workload.Network(8, bounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(Config{
		Bounds:       bounds,
		Objects:      workload.Uniform(50, bounds, 7),
		Network:      g,
		NetworkSites: sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	v := firstFree(st, g)
	ids, err := st.Apply([]Mutation{
		{Insert: true, P: geom.Pt(500, 500)},
		{Network: true, Insert: true, ID: v},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[1] != v {
		t.Fatalf("ids = %v", ids)
	}
	if st.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (one per mutation)", st.Epoch())
	}
	snap := st.Current()
	if !snap.Plane().Contains(ids[0]) {
		t.Fatalf("snapshot misses plane object %d", ids[0])
	}
	if !snap.Network().IsSite(v) {
		t.Fatalf("snapshot misses network site %d", v)
	}
	ops, ok := st.OpsSince(0, 2)
	if !ok || len(ops) != 2 || ops[0].Network || !ops[1].Network {
		t.Fatalf("ops = %+v, %v", ops, ok)
	}
}

func equalIntsIdx(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
