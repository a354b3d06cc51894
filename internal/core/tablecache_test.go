package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// tableCacheNetwork is a 12x12 street grid — jittered, or uniform so that
// sites tie on distance all the time — with every third vertex a site, a
// zero-weight edge (z coincides with vertex 50, is joined to it at no cost
// and onward to 51) and an island of four vertices holding three sites. At
// 149 vertices the scratch's table ring is bounded at 99 entries: three of
// the longest tables, a handful of the others.
func tableCacheNetwork(t *testing.T, jitter float64) (g *roadnet.Graph, sites, island []int) {
	t.Helper()
	const side = 12
	g, err := roadnet.GridNetwork(side, side, geom.NewRect(geom.Pt(0, 0), geom.Pt(1100, 1100)), jitter, jitter, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < side*side; v += 3 {
		sites = append(sites, v)
	}
	z := g.AddVertex(g.Point(50))
	if err := g.AddEdgeWeight(50, z, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(z, 51, 0); err != nil {
		t.Fatal(err)
	}
	islandSites := addIsland(t, g)
	for v := z + 1; v < g.NumVertices(); v++ {
		island = append(island, v)
	}
	return g, append(sites, islandSites...), island
}

// TestTableCacheMatchesFreshSearch tests the scratch's per-vertex table cache
// differentially, through pinEndpoint, its one caller. Sessions of k = 1, 5,
// 10 and 20 (M = 1, 8, 16, 32) share one scratch over an index.Store, on a
// jittered and on an all-ties grid, while random site mutations go by: in the
// /raw subtests the sessions re-pin after every mutation, so the cache hears
// of each on its own; in /store, after windows of one to three, and one
// session now and then stays behind. Every table pinned — searched for or
// served from the cache, whole or as the prefix of a longer one — is
// AppendKNN(VertexPosition(v), M) on the session's diagram bit for bit, ids
// and distances, ties included; a hit begins no search and is charged the
// stamps it read; a table that ends short of M is served only while no site
// has been inserted since it was built; the ring, sized for a handful of
// tables and written over many times, never serves what was overwritten; and
// a session pinned behind the cache's epoch is served nothing and leaves
// nothing behind.
func TestTableCacheMatchesFreshSearch(t *testing.T) {
	ks := []int{1, 5, 10, 20}
	for _, tc := range []struct {
		name    string
		jitter  float64
		windows bool
	}{{"jittered/raw", 0.25, false}, {"ties/raw", 0, false}, {"jittered/store", 0.25, true}, {"ties/store", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			g, sites, island := tableCacheNetwork(t, tc.jitter)
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			store, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			current := func() *netvor.Diagram { return store.Current().Network() }
			sc := new(netvor.SearchScratch)
			var qs []*netOnStore
			for _, k := range ks {
				q, err := newNetOnStore(store, k, 1.6)
				if err != nil {
					t.Fatal(err)
				}
				q.UseScratch(sc)
				qs = append(qs, q)
			}

			// pin pins v's table for q and checks it against the search;
			// shortAt[v] is the insert count when the table the cache holds
			// for v was built, for those that ended short of their M.
			var tab anchorTable
			var oracle netvor.SearchScratch
			inserts, shortAt := 0, map[int]int{}
			round, builtRound := 0, map[int]int{}
			var hits, prefixHits, laterHits, shortHits, builds, staleReads, written int
			pin := func(q *netOnStore, v int, mayHit bool) {
				t.Helper()
				m, before := q.prefetchCap(), *q.Metrics()
				q.pinEndpoint(&tab, v)
				after := q.Metrics()
				ids, ds, relaxed := q.d.AppendKNN(roadnet.VertexPosition(v), m, nil, nil, &oracle)
				got := make([]int, len(tab.site))
				for i, s := range tab.site {
					got[i] = int(s)
				}
				if !slices.Equal(got, ids) || !slices.Equal(tab.dist, ds) {
					t.Fatalf("k=%d vertex %d (hits +%d): table %v %v, the search reports %v %v",
						q.k, v, after.AnchorTableHits-before.AnchorTableHits, got, tab.dist, ids, ds)
				}
				reads := after.DistanceCalcs - before.DistanceCalcs
				if n := tablesTaken(before, *after); n != 1 {
					t.Fatalf("k=%d vertex %d: %d tables taken by one pin", q.k, v, n)
				}
				if after.AnchorTableHits > before.AnchorTableHits {
					if !mayHit {
						t.Fatalf("k=%d vertex %d: a session behind the cache's epoch was served from it", q.k, v)
					}
					if after.DijkstraRuns != before.DijkstraRuns || after.EdgeRelaxations != before.EdgeRelaxations || reads != len(ids) {
						t.Fatalf("k=%d vertex %d: a hit of %d entries began %d searches, relaxed %d edges and read %d stamps",
							q.k, v, len(ids), after.DijkstraRuns-before.DijkstraRuns, after.EdgeRelaxations-before.EdgeRelaxations, reads)
					}
					hits++
					if builtRound[v] < round {
						laterHits++
					}
					if at, short := shortAt[v]; len(ids) < m {
						if !short || at != inserts {
							t.Fatalf("k=%d vertex %d: a table of %d < %d entries built %d inserts ago was served", q.k, v, len(ids), m, inserts-at)
						}
						shortHits++
					}
					return
				}
				if after.DijkstraRuns != before.DijkstraRuns+1 || after.EdgeRelaxations-before.EdgeRelaxations != relaxed || reads > m {
					t.Fatalf("k=%d vertex %d: a build began %d searches, relaxed %d edges (the search %d) and read %d stamps",
						q.k, v, after.DijkstraRuns-before.DijkstraRuns, after.EdgeRelaxations-before.EdgeRelaxations, relaxed, reads)
				}
				builds++
				staleReads += reads
				if mayHit {
					written += 1 + len(ids)
					builtRound[v] = round
					delete(shortAt, v)
					if len(ids) < m {
						shortAt[v] = inserts
					}
				}
			}

			isSite := func(v int) bool { return current().IsSite(v) }
			mutate := func() {
				v := rng.Intn(g.NumVertices())
				insert := !isSite(v)
				if !insert && current().Len() <= 40 {
					return
				}
				if insert {
					inserts++
				}
				if insert {
					_, err = store.Apply([]index.Mutation{{Network: true, Insert: true, ID: v}})
				} else {
					_, err = store.Apply([]index.Mutation{{Network: true, ID: v}})
				}
				if err != nil {
					t.Fatal(err)
				}
				if !tc.windows {
					for _, q := range qs {
						q.Sync()
					}
				}
			}

			hot := append([]int{50, 51, g.NumVertices() - len(island) - 1}, island...) // the zero-weight edge and the island
			for round = 0; round < 600; round++ {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					mutate()
				}
				if lag := qs[round%len(qs)]; tc.windows && round%5 == 2 {
					// One session stays behind while the others take the cache
					// on: it builds for itself, against its own snapshot.
					for _, q := range qs {
						if q != lag {
							q.Sync()
						}
					}
					if lag.Epoch() != qs[(round+1)%len(qs)].Epoch() {
						pin(lag, hot[rng.Intn(len(hot))], false)
						pin(lag, rng.Intn(g.NumVertices()), false)
					}
				}
				for _, q := range qs {
					q.Sync()
				}
				switch order := slices.Clone(qs); round % 4 {
				case 0, 1:
					// Three vertices by every session, a ringful: longest table
					// first, so that the shorter requests are served its prefix, or
					// shortest first, so that each request supersedes the last.
					if round%4 == 0 {
						slices.Reverse(order)
					}
					for n := 0; n < 3; n++ {
						v := rng.Intn(g.NumVertices())
						if n == 0 {
							v = hot[rng.Intn(len(hot))]
						}
						for i, q := range order {
							was := hits
							pin(q, v, true)
							if round%4 == 0 && i > 0 && hits > was {
								prefixHits++
							}
						}
					}
				default:
					// Two rounds of short requests only, whose tables outlive a
					// window of mutations and are judged by their stamps.
					for _, v := range hot[:4] {
						pin(qs[0], v, true)
						pin(qs[1], v, true)
					}
				}
			}
			bound := g.NumVertices() * 2 / 3
			t.Logf("%d hits (%d of a prefix, %d of a table from an earlier window, %d of short tables), %d builds writing %d entries into a ring of %d, %d stamps read by lookups that failed",
				hits, prefixHits, laterHits, shortHits, builds, written, bound, staleReads)
			if prefixHits == 0 || laterHits == 0 || shortHits == 0 || staleReads == 0 || written < 20*bound {
				t.Errorf("cases not covered")
			}
		})
	}
}

// TestTableCacheSharedAcrossSessions: on the benchmark's street grid a second
// session that drives the route a first one has driven takes every table from
// the scratch they share, searches for none, and answers exactly alike.
func TestTableCacheSharedAcrossSessions(t *testing.T) {
	d := gridDiagram(t, 96, 1400)
	route, err := roadnet.RandomWalkRoute(d.Graph(), 4000, 6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := new(netvor.SearchScratch)
	var answers [2][]string
	var qs [2]*NetworkQuery
	for i := range qs {
		if qs[i], err = NewNetworkQuery(d, 10, 1.6); err != nil {
			t.Fatal(err)
		}
		qs[i].UseScratch(sc)
		for at := 0.0; at < route.Length(); at += 70 {
			knn, err := qs[i].Update(route.PositionAt(at))
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = append(answers[i], fmt.Sprint(knn))
		}
	}
	first, second := qs[0].Metrics(), qs[1].Metrics()
	if !slices.Equal(answers[0], answers[1]) {
		t.Fatal("the two sessions answered differently")
	}
	if first.AnchorBuilds == 0 || second.AnchorBuilds != 0 || second.AnchorTableHits != first.AnchorBuilds+first.AnchorTableHits {
		t.Fatalf("first session %v, second %v: want the second to take every table from the cache", first, second)
	}
	if searchSteps(second) >= searchSteps(first) {
		t.Fatalf("the second session cost %d search steps, the first %d", searchSteps(second), searchSteps(first))
	}
}
