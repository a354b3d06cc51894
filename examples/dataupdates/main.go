// Command dataupdates demonstrates query maintenance under data object
// updates (Section III of the paper): while the query object moves, data
// objects are inserted and removed — new restaurants open, gas stations
// close. The objects live in an index store, which publishes a new snapshot
// per update. After each one the INS processor is advanced to the new
// snapshot over the store's log of the updates in between, refreshes its
// guard sets only when an update can actually affect them, and the program
// cross-checks every reported kNN set against a fresh index search.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	insq "repro"
	"repro/internal/core"
	"repro/internal/index"
)

func main() {
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	st, err := index.NewStore(index.Config{Bounds: bounds, Objects: insq.UniformPoints(1000, bounds, 21)})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	q, err := core.NewPlaneQuery(st.Current().Plane(), 5, 1.6)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(22))
	live := st.Current().Plane().IDs()
	traj := insq.RandomWaypoint(bounds, 2000, 2, 23)

	inserts, removes, verified := 0, 0, 0
	for step, pos := range traj {
		knn, err := q.Update(pos)
		if err != nil {
			log.Fatal(err)
		}

		// One data update every 50 timestamps.
		if step%50 == 25 {
			if rng.Intn(2) == 0 {
				p := insq.Pt(rng.Float64()*1000, rng.Float64()*1000)
				id, err := st.Insert(p)
				if err != nil {
					log.Fatal(err)
				}
				live = append(live, id)
				inserts++
			} else if len(live) > 100 {
				i := rng.Intn(len(live))
				if err := st.Remove(live[i]); err != nil {
					log.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				removes++
			}
			// The paper requires the result to reflect updates
			// immediately: move the query to the new snapshot, repair it
			// eagerly, then verify its answer against a from-scratch
			// search.
			next := st.Current()
			ops, covered := st.OpsSince(q.Epoch(), next.Epoch())
			q.Advance(next, ops, covered)
			if _, _, err := q.Refresh(); err != nil {
				log.Fatal(err)
			}
			knn, err = q.Update(pos)
			if err != nil {
				log.Fatal(err)
			}
			fresh := st.Current().Plane().KNN(pos, 5)
			if !sameSet(knn, fresh) {
				log.Fatalf("step %d: stale result %v, fresh search %v", step, knn, fresh)
			}
			verified++
		}
		_ = knn
	}

	m := q.Metrics()
	fmt.Printf("moved %d steps with %d object inserts and %d removes (index now holds %d objects)\n",
		m.Timestamps, inserts, removes, st.Current().Plane().Len())
	fmt.Printf("all %d post-update results verified against fresh searches\n", verified)
	fmt.Printf("kNN recomputations: %d — update-triggered refreshes only fire when the guard sets are affected\n",
		m.Recomputations)
}

func sameSet(a, b []int) bool {
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
