package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// anchorDistance is the subnetwork distance the anchor's tables give site s
// at fraction t of the anchored edge (+Inf when neither table holds it).
func anchorDistance(a *edgeAnchor, t float64, s int) float64 {
	d := math.Inf(1)
	for e, off := range [2]float64{t * a.w, (1 - t) * a.w} {
		if j := slices.Index(a.end[e].site, int32(s)); j >= 0 {
			d = min(d, off+a.end[e].dist[j])
		}
	}
	return d
}

func nearly(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(math.Abs(b)+1) }

// anchorWalkPositions lays positions along route, advancing by the step
// pattern (fractions of cell, repeated; negative steps backtrack). To cover
// every way a client can name a place, each third position is given in the
// reversed orientation (V, U, 1−T) and, with snap, now and then one is moved
// onto the nearer endpoint of its edge, as T = 0 or 1 or as a vertex position.
func anchorWalkPositions(route *roadnet.Route, cell float64, steps []float64, n int, snap bool) []roadnet.Position {
	out := make([]roadnet.Position, 0, n)
	at := 0.0
	for i := 0; i < n; i++ {
		at = min(max(at+steps[i%len(steps)]*cell, 0), route.Length())
		pos := route.PositionAt(at)
		if pos.U != pos.V {
			if snap && i%17 == 5 {
				pos.T = math.Round(pos.T)
				if i%34 == 5 {
					v, _ := pos.AtVertex()
					pos = roadnet.VertexPosition(v)
				}
			}
			if i%3 == 1 && pos.U != pos.V {
				pos = roadnet.Position{U: pos.V, V: pos.U, T: 1 - pos.T}
			}
		}
		out = append(out, pos)
	}
	return out
}

// anchorWalkStats is what one differential walk saw.
type anchorWalkStats struct {
	updates, served, builds, carries, recomputes int

	// Updates that re-pinned to a newer snapshot with the anchor armed: the
	// re-pin kept it and it served the update, or invalidated and dropped it.
	keptRepin, droppedRepin int
}

// runAnchorWalk drives two sessions over the same positions and the same
// diagram: q, and a control that is knocked off its edge before every update
// — its anchor dropped and its last position forgotten — so that it never
// arms and every validation is today's search. mutate, when set, changes the
// diagram before update i. After every update the answer must be the
// full-network brute-force kNN; one served from the anchor must be what the
// Theorem-2 oracle, plain Dijkstra on the materialized subnetwork of the
// guard set, returns, with the tables' distances equal to the oracle's; and
// every update begins the searches its class says: none when served, one
// otherwise, plus one per table built. With exact (no equidistant sites, so
// verdicts cannot depend on a tie order) the two sessions must agree update
// by update on the answer, its order, and the recomputations and objects
// shipped.
func runAnchorWalk(t *testing.T, q, ctl *NetworkQuery, diagram func() *netvor.Diagram, positions []roadnet.Position, mutate func(i int, pos roadnet.Position), exact bool) anchorWalkStats {
	t.Helper()
	var st anchorWalkStats
	k := q.K()
	for i, pos := range positions {
		if mutate != nil {
			mutate(i, pos)
		}
		d := diagram()
		armed, epoch := q.anchor.armed, q.Epoch()
		before := *q.Metrics()
		got, err := q.Update(pos)
		if err != nil {
			t.Fatalf("update %d at %+v: %v", i, pos, err)
		}
		knn := slices.Clone(got)
		m := *q.Metrics()
		served := m.AnchoredValidations - before.AnchoredValidations
		built := m.AnchorBuilds - before.AnchorBuilds
		recomputed := m.Recomputations - before.Recomputations
		st.updates++
		st.served += served
		st.recomputes += recomputed
		switch built {
		case 0:
		case 1:
			st.carries++
		case 2:
			st.builds++
		default:
			t.Fatalf("update %d: %d anchor tables built", i, built)
		}
		if runs, want := m.DijkstraRuns-before.DijkstraRuns, built+1-served; runs != want {
			t.Fatalf("update %d at %+v: began %d searches, want %d (served %d, tables built %d)", i, pos, runs, want, served, built)
		}
		if served == 1 && recomputed != 0 {
			t.Fatalf("update %d: served from the anchor and recomputed", i)
		}
		if armed && q.Epoch() != epoch {
			switch {
			case served == 1:
				st.keptRepin++
			case !q.anchor.armed || built > 0:
				st.droppedRepin++
			}
		}

		checkNetKNN(t, d, pos, knn, k)
		if served == 1 {
			a := &q.anchor
			tt, on := along(a.u, a.v, pos)
			if !a.armed || !on {
				t.Fatalf("update %d: served at %+v by an anchor on (%d,%d), armed %v", i, pos, a.u, a.v, a.armed)
			}
			guard := append(q.Prefetched(), q.INS()...)
			ids, ds, _ := q.Subnetwork().KNNSites(pos, guard, k)
			if len(ids) != k {
				t.Fatalf("update %d at %+v: served, but the oracle reaches %d of %d guard sites", i, pos, len(ids), k)
			}
			if exact && !slices.Equal(ids, knn) {
				t.Fatalf("update %d at %+v: anchor says %v, subnetwork oracle %v", i, pos, knn, ids)
			}
			for j, s := range knn {
				if ad := anchorDistance(a, tt, s); !nearly(ad, ds[j]) {
					t.Fatalf("update %d at %+v: anchor puts #%d (site %d) at %g, oracle at %g", i, pos, j, s, ad, ds[j])
				}
			}
		}

		ctl.anchor.armed = false
		ctl.last = roadnet.Position{U: -1, V: -1}
		cb := *ctl.Metrics()
		want, err := ctl.Update(pos)
		if err != nil {
			t.Fatalf("control update %d at %+v: %v", i, pos, err)
		}
		if !exact {
			continue
		}
		cm := ctl.Metrics()
		if !slices.Equal(knn, want) {
			t.Fatalf("update %d at %+v: kNN %v, control %v", i, pos, knn, want)
		}
		if cr, cs := cm.Recomputations-cb.Recomputations, cm.ObjectsShipped-cb.ObjectsShipped; cr != recomputed || cs != m.ObjectsShipped-before.ObjectsShipped {
			t.Fatalf("update %d at %+v: %d recomputations shipping %d, control %d shipping %d",
				i, pos, recomputed, m.ObjectsShipped-before.ObjectsShipped, cr, cs)
		}
	}
	if cm := ctl.Metrics(); cm.AnchorBuilds != 0 || cm.AnchoredValidations != 0 {
		t.Fatalf("the control armed: %v", cm)
	}
	if exact {
		if m, cm := q.Metrics(), ctl.Metrics(); m.Recomputations != cm.Recomputations || m.ObjectsShipped != cm.ObjectsShipped {
			t.Fatalf("totals: %d recomputations shipping %d, control %d shipping %d",
				m.Recomputations, m.ObjectsShipped, cm.Recomputations, cm.ObjectsShipped)
		}
	}
	return st
}

// TestNetworkAnchorWalksMatchOracle: crawling (0.1 edge per update),
// striding (0.7) and mixed walks — stops, backtracking across vertices,
// reversed orientations, positions exactly on vertices — over an index.Store
// whose sites churn, far from the session (re-pins that keep the anchor) and
// right under it (re-pins that invalidate and drop it). A crawl is served
// from anchors it builds and carries; a stride never builds one.
func TestNetworkAnchorWalksMatchOracle(t *testing.T) {
	const side = 28
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	cell := bounds.Width() / (side - 1)
	g, err := roadnet.GridNetwork(side, side, bounds, 0.2, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sites := rand.New(rand.NewSource(8)).Perm(g.NumVertices())[:g.NumVertices()*15/100]
	walks := []struct {
		name  string
		steps []float64
		n     int
	}{
		{"crawl", []float64{0.1}, 700},
		{"stride", []float64{0.7}, 300},
		{"mixed", []float64{0.1, 0.1, 0.1, 0.1, 0.7, 0.3, 0, -0.25, 0.1, 0.15, 0.1, -0.45, 0.1, 0.1, 0.1, 0, 0.05}, 700},
	}
	for wi, wk := range walks {
		for _, k := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", wk.name, k), func(t *testing.T) {
				store, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				q, err := NewNetworkQueryPinned(store, k, 1.6)
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				ctl, err := NewNetworkQueryPinned(store, k, 1.6)
				if err != nil {
					t.Fatal(err)
				}
				defer ctl.Close()
				rng := rand.New(rand.NewSource(int64(100*wi + k)))
				length := 0.0
				for i := 0; i < wk.n; i++ {
					length += wk.steps[i%len(wk.steps)] * cell
				}
				route, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), length+cell, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				positions := anchorWalkPositions(route, cell, wk.steps, wk.n, wk.name != "stride")

				// Every fifth update is preceded by a site mutation, by turns an
				// insert and a removal far from the session and an insert and a
				// removal on top of it.
				farVertex := func(pos roadnet.Position, site bool) int {
					d := store.Current().Network()
					for {
						v := rng.Intn(g.NumVertices())
						if d.IsSite(v) == site && g.Point(v).Dist(pos.Point(g)) > 450 {
							return v
						}
					}
				}
				mutate := func(i int, pos roadnet.Position) {
					if i == 0 || i%5 != 0 {
						return
					}
					d := store.Current().Network()
					var err error
					switch i / 5 % 4 {
					case 0:
						err = store.InsertSite(farVertex(pos, false))
					case 1:
						err = store.RemoveSite(farVertex(pos, true))
					case 2:
						if v := pos.V; !d.IsSite(v) {
							err = store.InsertSite(v)
						}
					case 3:
						err = store.RemoveSite(q.Current()[0])
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				st := runAnchorWalk(t, q, ctl, func() *netvor.Diagram { return store.Current().Network() }, positions, mutate, true)
				t.Logf("%+v", st)
				switch wk.name {
				case "stride":
					if st.builds != 0 || st.carries != 0 || st.served != 0 {
						t.Errorf("a stride armed: %+v", st)
					}
				case "crawl":
					if st.served*3 < st.updates {
						t.Errorf("a crawl was served from the anchor on only %d of %d updates", st.served, st.updates)
					}
					fallthrough
				default:
					if st.builds == 0 || st.carries == 0 || st.served == 0 || st.recomputes == 0 {
						t.Errorf("walk did not build, carry, serve and recompute: %+v", st)
					}
					if st.keptRepin == 0 || st.droppedRepin == 0 {
						t.Errorf("walk did not see a re-pin keep and a re-pin drop the anchor: %+v", st)
					}
				}
			})
		}
	}
}

// TestNetworkAnchorTiesAndZeroWeight: on a uniform grid, where sites tie on
// distance all the time, with a zero-weight edge spliced into the route and
// walked slowly, the anchored answers stay brute-force kNN sets and its
// distances the oracle's — which of two equidistant sites is reported may
// differ from the control, so only that is compared.
func TestNetworkAnchorTiesAndZeroWeight(t *testing.T) {
	const side = 10
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(900, 900))
	g, err := roadnet.GridNetwork(side, side, bounds, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// z is a junction coincident with vertex 44, joined to it by a zero-weight
	// edge and onward to 45 by one as long as (44, 45).
	z := g.AddVertex(g.Point(44))
	if err := g.AddEdgeWeight(44, z, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(z, 45, 0); err != nil {
		t.Fatal(err)
	}
	var sites []int
	for v := 0; v < side*side; v += 3 {
		sites = append(sites, v)
	}
	d, err := netvor.Build(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	var positions []roadnet.Position
	crawl := func(u, v int) {
		for _, tt := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1} {
			positions = append(positions, roadnet.Position{U: u, V: v, T: tt})
		}
	}
	for _, e := range [][2]int{{42, 43}, {43, 44}, {44, z}, {z, 45}, {45, 46}, {46, 56}, {56, 55}, {55, 45}, {45, z}, {z, 44}, {44, 34}} {
		crawl(e[0], e[1])
	}
	for _, k := range []int{1, 2, 4} {
		q, err := NewNetworkQuery(d, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewNetworkQuery(d, k, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		st := runAnchorWalk(t, q, ctl, func() *netvor.Diagram { return d }, positions, nil, false)
		t.Logf("k=%d: %+v", k, st)
		if st.served == 0 || st.carries == 0 {
			t.Errorf("k=%d: the walk was never served or never carried: %+v", k, st)
		}
	}
}

// setKNN rearranges the query's guard list so that r[:k] is ids, reversed —
// the fast path has to put it back in order.
func setKNN(q *NetworkQuery, ids []int) {
	for i, s := range ids {
		j := slices.Index(q.guard, s)
		q.guard[i], q.guard[j] = q.guard[j], q.guard[i]
	}
	slices.Reverse(q.guard[:len(ids)])
}

// TestNetworkAnchorTablesDecideLikeOracle puts the fast path alone against
// the oracle, on every edge of the materialized subnetwork — the rim edges
// with a ring endpoint, which no valid session stands on, included — and for
// guard sets a session never holds: two far-apart clusters, so that an
// endpoint reaches fewer than k guard sites. At every position, in both
// orientations and on both endpoints, the tables certify the oracle's k
// nearest and nothing else, put them in the oracle's order at the oracle's
// distances, and leave a kNN set they do not certify untouched. On the
// uniform grid, where a member and a non-member tie, what they certify is
// still a set of k nearest.
func TestNetworkAnchorTablesDecideLikeOracle(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	for _, jitter := range []float64{0.2, 0} {
		detour := 1.5 * jitter
		g, err := roadnet.GridNetwork(18, 18, bounds, jitter, detour, 11)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		d, err := netvor.Build(g, rng.Perm(g.NumVertices())[:60])
		if err != nil {
			t.Fatal(err)
		}
		exact := jitter > 0
		rim, short, certified, tiesCertified := 0, 0, 0, 0
		for _, k := range []int{1, 2, 5} {
			for trial := 0; trial < 4; trial++ {
				q, err := NewNetworkQuery(d, k, 1.6)
				if err != nil {
					t.Fatal(err)
				}
				home := rng.Intn(g.NumVertices())
				if _, err := q.Update(roadnet.VertexPosition(home)); err != nil {
					t.Fatal(err)
				}
				if trial%2 == 1 {
					// A second cluster of two sites, out of the first one's reach.
					for {
						far := d.KNN(roadnet.VertexPosition(rng.Intn(g.NumVertices())), 2)
						both := append(slices.Clone(q.guard), far...)
						if ids, _, _ := d.Subnetwork(both).KNNSites(roadnet.VertexPosition(far[0]), both, len(both)); len(ids) == 2 {
							q.guard = both
							break
						}
					}
				}
				q.r, q.ins = q.guard[:k], q.guard[k:]
				guard := slices.Clone(q.guard)
				sub := d.Subnetwork(guard)
				sub.G.Edges(func(su, sv int, _ float64) {
					u, v := sub.ToFull[su], sub.ToFull[sv]
					for _, x := range []int{u, v} {
						if o, _ := d.Owner(x); !slices.Contains(guard, o) {
							rim++
						}
					}
					mid := roadnet.Position{U: u, V: v, T: 0.5}
					q.anchor.armed = false
					before := q.Metrics().AnchorBuilds
					if _, ok := q.anchorAt(mid, mid); !ok || q.Metrics().AnchorBuilds != before+2 {
						t.Fatalf("no anchor on subnetwork edge (%d,%d)", u, v)
					}
					for _, p := range []roadnet.Position{
						{U: u, V: v, T: 0}, {U: u, V: v, T: 0.3}, {U: v, V: u, T: 0.3}, {U: u, V: v, T: 0.55},
						{U: u, V: v, T: 1}, {U: v, V: u, T: 0.9}, roadnet.VertexPosition(u), roadnet.VertexPosition(v),
					} {
						tt, ok := q.anchorAt(mid, p)
						if !ok || q.Metrics().AnchorBuilds != before+2 {
							t.Fatalf("anchor on (%d,%d) does not cover %+v", u, v, p)
						}
						ids, ds, _ := sub.KNNSites(p, guard, len(guard))
						if len(ids) < k {
							short++
							if len(q.anchor.end[0].site) >= k || len(q.anchor.end[1].site) >= k {
								t.Fatalf("at %+v the oracle reaches %d guard sites, the tables %d and %d",
									p, len(ids), len(q.anchor.end[0].site), len(q.anchor.end[1].site))
							}
							if q.anchoredValid(tt) {
								t.Fatalf("at %+v: certified with %d of %d guard sites in reach", p, len(ids), k)
							}
							continue
						}
						// The oracle's k nearest, then the same with the last
						// swapped for the runner-up.
						arrangements := [][]int{ids[:k]}
						if len(ids) > k {
							arrangements = append(arrangements, append(slices.Clone(ids[:k-1]), ids[k]))
						}
						for ai, members := range arrangements {
							tied := len(ids) > k && nearly(ds[k-1], ds[k])
							setKNN(q, members)
							was := slices.Clone(q.guard)
							got := q.anchoredValid(tt)
							if !got {
								if !slices.Equal(q.guard, was) {
									t.Fatalf("at %+v: declined and still rewrote the guard list", p)
								}
								if ai == 0 && exact {
									t.Fatalf("at %+v: did not certify the oracle's %v (tables %+v)", p, ids[:k], q.anchor.end)
								}
								continue
							}
							if ai == 1 && !tied {
								t.Fatalf("at %+v: certified %v, the oracle's k nearest are %v at %v", p, members, ids[:k+1], ds[:k+1])
							}
							certified++
							if tied {
								tiesCertified++
							}
							if exact && !slices.Equal(q.r[:k], ids[:k]) {
								t.Fatalf("at %+v: left r[:k] = %v, oracle order %v", p, q.r[:k], ids[:k])
							}
							for j, s := range q.r[:k] {
								if ad := anchorDistance(&q.anchor, tt, s); !nearly(ad, ds[j]) {
									t.Fatalf("at %+v: #%d (site %d) at %g, oracle has %g there", p, j, s, ad, ds[j])
								}
							}
						}
					}
				})
			}
		}
		t.Logf("jitter %g: %d certified (%d across a tie), %d rim endpoints, %d positions short of k", jitter, certified, tiesCertified, rim, short)
		if certified == 0 || rim == 0 || short == 0 {
			t.Errorf("jitter %g: cases not covered", jitter)
		}
		if !exact && tiesCertified == 0 {
			t.Errorf("no kNN set was certified across a member/non-member tie")
		}
	}
}
