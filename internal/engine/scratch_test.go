package engine

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// scratchCase is an engine the shared-scratch tests run on.
type scratchCase struct {
	name     string
	shards   int
	logDepth int
	burst    int // every burst-th step applies three mutations; 0: never
	routes   int // the network sessions walk this many routes; 0: one each
}

// scratchCases are one shard, whose sessions all share its scratch, over the
// default log with one mutation a step; and three shards, whose sessions
// move through the same windows, over a log of two ops, which a burst of
// three mutations applied as one batch every fourth step overflows.
var scratchCases = []scratchCase{{"one_shard", 1, 0, 0, 0}, {"three_shards_overflowing_log", 3, 2, 4, 0}}

// mutationsAt is how many mutations step applies, in one batch.
func mutationsAt(burst, step int) int {
	if burst > 0 && step%burst == 0 {
		return 3
	}
	return 1
}

// TestSharedScratchSessionsMatchBruteForce puts 72 plane sessions of mixed
// k and ρ on the engines of scratchCases — on ONE shard in the first, so
// that every one of them searches through the same scratch: visited stamps,
// frontier, ring buffers — and each keeps a hint of its own across other
// sessions' searches. Their updates interleave in shuffled partial batches
// with object inserts beside sessions, removals of answer members and, for
// the watched half, the sweep's eager refreshes; on the second engine the
// bursts overflow the log, so every shard moves its sessions through a
// window it cannot judge. Every answer must be the brute-force kNN of the
// objects live at that moment: state leaking from one session's search into
// the next shows up as a wrong set. And every session must read the store's
// epoch once its batch has returned. Run under -race.
func TestSharedScratchSessionsMatchBruteForce(t *testing.T) {
	for _, tc := range scratchCases {
		t.Run(tc.name, func(t *testing.T) {
			objects := workload.Uniform(1500, testBounds, 5)
			e, err := New(Config{Shards: tc.shards, LogDepth: tc.logDepth, Bounds: testBounds, Objects: objects})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			live := make(map[int]geom.Point, len(objects))
			for id, p := range objects {
				live[id] = p
			}

			const nSessions = 72
			ks := []int{1, 2, 3, 5, 8, 13}
			rhos := []float64{1, 1.6, 2.5}
			rng := rand.New(rand.NewSource(6))
			sids := make([]SessionID, nSessions)
			k := make([]int, nSessions)
			pos := make([]geom.Point, nSessions)
			for i := range sids {
				k[i] = ks[i%len(ks)]
				if sids[i], err = e.CreateSession(k[i], rhos[i%len(rhos)]); err != nil {
					t.Fatal(err)
				}
				pos[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			// Watching half of the sessions routes their data-update repairs
			// through the sweep (Refresh) instead of the next Update.
			watched := make([]uint64, 0, nSessions/2)
			for i := 0; i < nSessions; i += 2 {
				watched = append(watched, uint64(sids[i]))
			}
			sub := e.Stream().Subscribe(0, watched...)
			c := collect(sub)
			defer c.close()
			defer sub.Close()

			checkAnswer := func(step, i int, got []int) {
				t.Helper()
				d2 := make([]float64, 0, len(live))
				for _, p := range live {
					d2 = append(d2, pos[i].Dist2(p))
				}
				sort.Float64s(d2)
				if len(got) != k[i] {
					t.Fatalf("step %d session %d (k=%d): answer %v", step, i, k[i], got)
				}
				gd := make([]float64, 0, len(got))
				for _, id := range got {
					p, ok := live[id]
					if !ok {
						t.Fatalf("step %d session %d: answer %v holds removed object %d", step, i, got, id)
					}
					gd = append(gd, pos[i].Dist2(p))
				}
				sort.Float64s(gd)
				for j := range gd {
					if gd[j] != d2[j] {
						t.Fatalf("step %d session %d (k=%d): answer %v has distance[%d] = %g, brute force %g", step, i, k[i], got, j, gd[j], d2[j])
					}
				}
			}

			var lastAnswer []int
			for step := 0; step < 60; step++ {
				// The step's data updates, one batch.
				var muts []index.Mutation
				for j := 0; j < mutationsAt(tc.burst, step); j++ {
					switch {
					case (step+j)%3 == 1 && len(lastAnswer) > 0: // remove a member of some session's answer
						id := lastAnswer[rng.Intn(len(lastAnswer))]
						if _, ok := live[id]; ok {
							muts = append(muts, index.Mutation{ID: id})
							delete(live, id)
						}
					default: // insert beside a session, or anywhere
						p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
						if (step+j)%2 == 0 {
							at := pos[rng.Intn(nSessions)]
							p = geom.Pt(at.X+rng.Float64(), at.Y+rng.Float64())
						}
						if testBounds.Contains(p) {
							muts = append(muts, index.Mutation{Insert: true, P: p})
						}
					}
				}
				ids, err := e.ApplyMutations(context.Background(), muts)
				if err != nil {
					t.Fatal(err)
				}
				for j, m := range muts {
					if m.Insert {
						live[ids[j]] = m.P
					}
				}
				// Two shuffled half-batches: sessions of different k alternate on
				// the scratch, and a session's consecutive updates are separated
				// by other sessions' searches.
				order := rng.Perm(nSessions)
				for _, half := range [][]int{order[:nSessions/2], order[nSessions/2:]} {
					batch := make([]LocationUpdate, len(half))
					for j, i := range half {
						stride := []float64{0.5, 6, 40}[rng.Intn(3)]
						pos[i] = geom.Pt(pos[i].X+(rng.Float64()*2-1)*stride, pos[i].Y+(rng.Float64()*2-1)*stride)
						batch[j] = LocationUpdate{Session: sids[i], Pos: pos[i]}
					}
					results, err := updateBatch(e, batch)
					if err != nil {
						t.Fatal(err)
					}
					for j, r := range results {
						if r.Err != nil {
							t.Fatalf("step %d session %d: %v", step, half[j], r.Err)
						}
						checkAnswer(step, half[j], r.KNN)
						if st, err := e.State(r.Session); err != nil || st.Epoch != e.store.Epoch() {
							t.Fatalf("step %d session %d: state at epoch %d, the store at %d (err %v)", step, half[j], st.Epoch, e.store.Epoch(), err)
						}
						lastAnswer = r.KNN
					}
				}
			}
			st, err := e.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if c := st.Counters; c.Validations <= c.Invalidations || c.Invalidations == 0 || c.Recomputations <= nSessions {
				t.Errorf("workload did not exercise both valid and invalid updates beyond first placement: %+v", c)
			}
		})
	}
}

// TestNetSharedScratchSessionsMatchOracle is the road-network twin: 72
// network sessions of mixed k and ρ — on ONE shard in the first of
// scratchCases — run their validation searches through the same scratch,
// which between two calls holds nothing of any session: guard marks,
// frontier and tentative distances are rebuilt inside each Update. Updates
// interleave in shuffled half-batches with site insertions beside sessions,
// removals of answer members and, for the watched half, the sweep's eager
// refreshes (whose affectedness test marks the scratch too); on the second
// engine the bursts overflow the log. Every answer must be the kNN of a
// diagram rebuilt from scratch over the live sites, compared as sorted
// distance lists by a cold full-network search, and the set the session
// reports as its state (R[:k]) must be the answer just returned, in the
// same order, at the store's epoch. Recomputations that continue the failed
// validation search through the shared scratch must be among them. A third
// engine has eight shards, whose sessions walk nine routes, eight sessions a
// route on eight shards: a table one shard builds is served to the others
// from the engine's one table store, and more tables are served than built.
// Run under -race.
func TestNetSharedScratchSessionsMatchOracle(t *testing.T) {
	for _, tc := range append(slices.Clip(scratchCases), scratchCase{"eight_shards_shared_routes", 8, 0, 0, 9}) {
		t.Run(tc.name, func(t *testing.T) {
			g, sites := testNetwork(t, 30, 30, 130, 41)
			e, err := New(Config{Shards: tc.shards, LogDepth: tc.logDepth, Network: g, NetworkSites: sites})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			live := make(map[int]bool, len(sites))
			for _, s := range sites {
				live[s] = true
			}

			const nSessions = 72
			ks := []int{1, 2, 3, 5, 8, 13}
			rhos := []float64{1, 1.6, 2.5}
			rng := rand.New(rand.NewSource(8))
			sids := make([]SessionID, nSessions)
			k := make([]int, nSessions)
			routes := make([]*roadnet.Route, nSessions)
			at := make([]float64, nSessions)
			for i := range sids {
				k[i] = ks[i%len(ks)]
				if sids[i], err = e.CreateNetworkSession(k[i], rhos[i%len(rhos)]); err != nil {
					t.Fatal(err)
				}
				if tc.routes > 0 && i >= tc.routes {
					routes[i] = routes[i%tc.routes]
				} else if routes[i], err = roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), 4000, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			watched := make([]uint64, 0, nSessions/2)
			for i := 0; i < nSessions; i += 2 {
				watched = append(watched, uint64(sids[i]))
			}
			sub := e.Stream().Subscribe(0, watched...)
			c := collect(sub)
			defer c.close()
			defer sub.Close()

			var lastAnswer []int
			for step := 0; step < 50; step++ {
				// The step's site mutations, one batch.
				var muts []index.Mutation
				for j := 0; j < mutationsAt(tc.burst, step); j++ {
					if (step+j)%3 == 1 && len(lastAnswer) > 0 {
						if v := lastAnswer[rng.Intn(len(lastAnswer))]; live[v] {
							muts = append(muts, index.Mutation{Network: true, ID: v})
							delete(live, v)
						}
						continue
					}
					v := rng.Intn(g.NumVertices())
					if (step+j)%2 == 0 { // beside a session
						i := rng.Intn(nSessions)
						v = routes[i].PositionAt(at[i]).U
					}
					if !live[v] {
						muts = append(muts, index.Mutation{Network: true, Insert: true, ID: v})
						live[v] = true
					}
				}
				if _, err := e.ApplyMutations(context.Background(), muts); err != nil {
					t.Fatal(err)
				}
				liveSites := make([]int, 0, len(live))
				for v := range live {
					liveSites = append(liveSites, v)
				}
				oracle, err := netvor.Build(g, liveSites)
				if err != nil {
					t.Fatal(err)
				}

				order := rng.Perm(nSessions)
				for _, half := range [][]int{order[:nSessions/2], order[nSessions/2:]} {
					batch := make([]NetworkLocationUpdate, len(half))
					for j, i := range half {
						at[i] += []float64{0.5, 12, 90}[rng.Intn(3)]
						batch[j] = NetworkLocationUpdate{Session: sids[i], Pos: routes[i].PositionAt(at[i])}
					}
					results, err := updateNetworkBatch(e, batch)
					if err != nil {
						t.Fatal(err)
					}
					for j, r := range results {
						i := half[j]
						if r.Err != nil {
							t.Fatalf("step %d session %d: %v", step, i, r.Err)
						}
						for _, v := range r.KNN {
							if !live[v] {
								t.Fatalf("step %d session %d: answer %v holds removed site %d", step, i, r.KNN, v)
							}
						}
						checkNetAnswer(t, g, oracle, batch[j].Pos, k[i], r.KNN)
						if st, err := e.State(sids[i]); err != nil || !slices.Equal(st.KNN, r.KNN) || st.Epoch != e.store.Epoch() {
							t.Fatalf("step %d session %d: answered %v at the store's epoch %d, state holds %v at %d (err %v)", step, i, r.KNN, e.store.Epoch(), st.KNN, st.Epoch, err)
						}
						lastAnswer = r.KNN
					}
				}
			}
			st, err := e.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if c := st.Counters; c.Validations <= c.Invalidations || c.Invalidations == 0 || c.Recomputations <= nSessions {
				t.Errorf("workload did not exercise both valid and invalid updates beyond first placement: %+v", c)
			}
			// One search is begun per update and per eager refresh that
			// recomputes; a recomputation that has a validation search to
			// continue begins none. So validations + recomputations - searches
			// counts the continued ones.
			if c := st.Counters; c.Validations+c.Recomputations-c.DijkstraRuns < nSessions {
				t.Errorf("only %d recomputations continued their validation search: %+v", c.Validations+c.Recomputations-c.DijkstraRuns, c)
			}
			if c := st.Counters; tc.routes > 0 && c.AnchorTableHits <= c.AnchorBuilds {
				t.Errorf("sessions on shared routes were served %d tables and built %d", c.AnchorTableHits, c.AnchorBuilds)
			}
		})
	}
}

// checkNetAnswer fails the test unless knn is a k-nearest-site set of pos in
// g: its sorted network distances, by a cold search over the whole graph,
// are those oracle, a diagram built over the live sites, reports.
func checkNetAnswer(t *testing.T, g *roadnet.Graph, oracle *netvor.Diagram, pos roadnet.Position, k int, knn []int) {
	t.Helper()
	_, want := oracle.OracleKNNWithDistances(pos, k)
	all := g.ShortestDistances(pos.Sources(g), -1)
	got := make([]float64, 0, len(knn))
	for _, v := range knn {
		got = append(got, all[v])
	}
	sort.Float64s(got)
	if len(got) != k || len(want) != k {
		t.Fatalf("k=%d at %v: answer %v, oracle distances %v", k, pos, knn, want)
	}
	for x := range got {
		if diff := got[x] - want[x]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("k=%d at %v: answer %v has distance[%d] = %g, oracle %g", k, pos, knn, x, got[x], want[x])
		}
	}
}

// TestTableStoreSharedByShards: eight shards share the engine's one
// endpoint-table store while their workers serve crawling, striding and
// sprinting network sessions concurrently (run under -race). The store may
// hold a ring of ⌊2V/3⌋ entries per shard and never holds more; on the small
// grid it fills that and wraps, and on the larger one it grows past one
// shard's ring. Every lookup is a pinned endpoint, a hit one served from the
// store, and every answer is the kNN of a diagram built over the sites.
func TestTableStoreSharedByShards(t *testing.T) {
	const shards, nSessions = 8, 64
	for _, c := range []struct{ side, sites int }{{30, 130}, {60, 520}} {
		g, sites := testNetwork(t, c.side, c.side, c.sites, 43)
		e, err := New(Config{Shards: shards, Network: g, NetworkSites: sites})
		if err != nil {
			t.Fatal(err)
		}
		ring := g.NumVertices() * 2 / 3
		if st := e.tables.Stats(); st.Max != shards*ring || st.Entries != 0 {
			t.Fatalf("%dx%d: a fresh engine's store holds %d of %d entries, want 0 of %d", c.side, c.side, st.Entries, st.Max, shards*ring)
		}
		oracle, err := netvor.Build(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{1, 5, 10, 20}
		rng := rand.New(rand.NewSource(44))
		sids := make([]SessionID, nSessions)
		routes := make([]*roadnet.Route, nSessions)
		at := make([]float64, nSessions)
		for i := range sids {
			if sids[i], err = e.CreateNetworkSession(ks[i%len(ks)], 1.6); err != nil {
				t.Fatal(err)
			}
			if routes[i], err = roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), 6000, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 60; step++ {
			batch := make([]NetworkLocationUpdate, nSessions)
			for i := range batch {
				at[i] += []float64{0.5, 12, 90}[i%3]
				batch[i] = NetworkLocationUpdate{Session: sids[i], Pos: routes[i].PositionAt(at[i])}
			}
			results, err := updateNetworkBatch(e, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%dx%d step %d session %d: %v", c.side, c.side, step, i, r.Err)
				}
				checkNetAnswer(t, g, oracle, batch[i].Pos, ks[i%len(ks)], r.KNN)
			}
			if st := e.tables.Stats(); st.Entries > st.Max {
				t.Fatalf("%dx%d step %d: the store holds %d entries, at most %d", c.side, c.side, step, st.Entries, st.Max)
			}
		}
		stats, err := e.Stats()
		if err != nil {
			t.Fatal(err)
		}
		st, cnt := e.tables.Stats(), stats.Counters
		t.Logf("%dx%d: %d of %d entries, %d wraps; %d hits, %d stale, %d absent", c.side, c.side, st.Entries, st.Max, st.Wraps, st.Hits, st.Stale, st.Absent)
		if st.Hits != uint64(cnt.AnchorTableHits) || st.Stale+st.Absent != uint64(cnt.AnchorBuilds) {
			t.Errorf("%dx%d: the store counted %d hits and %d misses, the sessions %d table hits and %d builds", c.side, c.side, st.Hits, st.Stale+st.Absent, cnt.AnchorTableHits, cnt.AnchorBuilds)
		}
		if st.Entries <= ring || st.Entries == st.Max && st.Wraps == 0 {
			t.Errorf("%dx%d: a store of %d entries (one shard's ring %d), %d wraps", c.side, c.side, st.Entries, ring, st.Wraps)
		}
		e.Close()
	}
}
