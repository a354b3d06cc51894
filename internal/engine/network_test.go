package engine

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/stream"
)

// testNetwork builds the jittered grid road network the network serving
// tests run on, plus a deterministic initial site set.
func testNetwork(t *testing.T, rows, cols, nSites int, seed int64) (*roadnet.Graph, []int) {
	t.Helper()
	g, err := roadnet.GridNetwork(rows, cols, testBounds, 0.2, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	sites := rng.Perm(g.NumVertices())[:nSites]
	return g, sites
}

// refNetQuery is a single-threaded reference session: a core.NetworkQuery
// over its own index store, mutated in lockstep with the engine's store —
// the network mirror of refQuery. Each site mutation, as it is applied,
// judges its guard set and its edge anchor (follow).
type refNetQuery struct {
	st *index.Store
	q  *core.NetworkQuery
}

func newRefNetQuery(t *testing.T, g *roadnet.Graph, sites []int, k int, rho float64) *refNetQuery {
	t.Helper()
	st, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewNetworkQuery(st.Current().Network(), k, rho)
	if err != nil {
		t.Fatal(err)
	}
	return &refNetQuery{st: st, q: q}
}

func (r *refNetQuery) insert(t *testing.T, v int) {
	t.Helper()
	if err := r.st.InsertSite(v); err != nil {
		t.Fatal(err)
	}
	follow(r.st, r.q)
}

func (r *refNetQuery) remove(t *testing.T, v int) {
	t.Helper()
	if err := r.st.RemoveSite(v); err != nil {
		t.Fatal(err)
	}
	follow(r.st, r.q)
}

func sortedCopy(a []int) []int {
	out := append([]int(nil), a...)
	sort.Ints(out)
	return out
}

// TestEngineNetworkEquivalenceUnderMutations is the road-network
// counterpart of TestEngineEquivalenceUnderMutations and the acceptance
// test of network serving parity: network sessions spread across every
// shard must return exactly the answers of (1) single-threaded reference
// processors fed the same site mutations and (2) a stateless oracle that
// rebuilds the network Voronoi diagram from scratch at every step — the
// oracle guards against the engine and the reference sharing an unsound
// invalidation rule. Run under -race in CI, it also proves the shared
// frozen diagrams are read without synchronization bugs.
func TestEngineNetworkEquivalenceUnderMutations(t *testing.T) {
	const (
		nSessions = 10
		shards    = 4
		steps     = 40
		k         = 4
		rho       = 1.6
		nSites    = 40
	)
	g, sites := testNetwork(t, 20, 20, nSites, 17)
	e, err := New(Config{Shards: shards, Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(23))
	sids := make([]SessionID, nSessions)
	refs := make([]*refNetQuery, nSessions)
	routes := make([]*roadnet.Route, nSessions)
	for i := range sids {
		sid, err := e.CreateNetworkSession(k, rho)
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
		refs[i] = newRefNetQuery(t, g, sites, k, rho)
		route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), 2000, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		routes[i] = route
	}

	live := append([]int(nil), sites...)
	isSite := make(map[int]bool, len(live))
	for _, s := range live {
		isSite[s] = true
	}
	var added []int
	mutations := 0
	for s := 0; s < steps; s++ {
		// One site mutation per step: alternate inserts and removals.
		if s%3 == 2 && len(added) > 2 {
			victim := added[0]
			added = added[1:]
			if err := removeNetworkObject(e, victim); err != nil {
				t.Fatalf("step %d remove site %d: %v", s, victim, err)
			}
			isSite[victim] = false
			for i, lv := range live {
				if lv == victim {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			for _, r := range refs {
				r.remove(t, victim)
			}
		} else {
			v := rng.Intn(g.NumVertices())
			for isSite[v] {
				v = rng.Intn(g.NumVertices())
			}
			if _, err := insertNetworkObject(e, v); err != nil {
				t.Fatalf("step %d insert site %d: %v", s, v, err)
			}
			isSite[v] = true
			live = append(live, v)
			added = append(added, v)
			for _, r := range refs {
				r.insert(t, v)
			}
		}
		mutations++

		// The stateless oracle: a diagram rebuilt from scratch over the
		// live site set answers every probe with ground truth.
		oracle, err := netvor.Build(g, live)
		if err != nil {
			t.Fatalf("step %d oracle: %v", s, err)
		}

		batch := make([]NetworkLocationUpdate, nSessions)
		dist := float64(s+1) * 40
		for i := range sids {
			batch[i] = NetworkLocationUpdate{Session: sids[i], Pos: routes[i].PositionAt(dist)}
		}
		results, err := updateNetworkBatch(e, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("step %d session %d: %v", s, i, r.Err)
			}
			want, err := refs[i].q.Update(batch[i].Pos)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(r.KNN, want) {
				t.Fatalf("step %d session %d: engine %v, reference %v", s, i, r.KNN, want)
			}
			truth := oracle.KNN(batch[i].Pos, k)
			if got, oracleSet := sortedCopy(r.KNN), sortedCopy(truth); !equalInts(got, oracleSet) {
				t.Fatalf("step %d session %d: engine set %v, rebuilt-from-scratch oracle %v", s, i, got, oracleSet)
			}
		}
	}

	// After a full round of updates every shard has moved on: exactly
	// one snapshot version remains live, and the epoch counted every site
	// mutation.
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 1 {
		t.Errorf("live snapshots = %d, want 1 (old versions must be collected)", st.Snapshots)
	}
	if st.Epoch != uint64(mutations) {
		t.Errorf("epoch = %d, want %d", st.Epoch, mutations)
	}
	if st.NetworkObjects != len(live) {
		t.Errorf("network objects = %d, want %d", st.NetworkObjects, len(live))
	}
}

// TestStreamNetworkEagerPush: a watched network session must receive a
// data-cause push with the inserted site in its kNN without ever polling —
// the network side of TestStreamEagerPushWithoutPolling.
func TestStreamNetworkEagerPush(t *testing.T) {
	g, sites := testNetwork(t, 16, 16, 30, 5)
	e, err := New(Config{Shards: 4, Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sid, err := e.CreateNetworkSession(3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	// Park the session at a vertex that is not a site, so inserting a site
	// at that very vertex makes it the trivially nearest neighbor.
	home := 0
	isSite := make(map[int]bool)
	for _, s := range sites {
		isSite[s] = true
	}
	for isSite[home] {
		home++
	}
	res, err := updateNetworkBatch(e, []NetworkLocationUpdate{{Session: sid, Pos: roadnet.VertexPosition(home)}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("update: %v / %v", err, res[0].Err)
	}

	sub := e.Stream().Subscribe(0, uint64(sid))
	defer sub.Close()

	id, err := insertNetworkObject(e, home)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no push within 5s of the site insert")
		case <-sub.Wake():
			for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
				if ev.Cause != stream.CauseData {
					continue
				}
				found := false
				for _, a := range ev.Added {
					found = found || a == id
				}
				if !found {
					t.Fatalf("data event %+v does not add site %d", ev, id)
				}
				return
			}
		}
	}
}
