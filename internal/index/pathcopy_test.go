package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

var benchBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))

// BenchmarkStoreApplyPublish measures the cost of publishing one
// data-update epoch (insert+remove) at increasing object counts. With
// path-copying publication the per-epoch cost must grow sublinearly in the
// object count — the old deep-clone publication grew linearly.
func BenchmarkStoreApplyPublish(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 64000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			st, err := NewStore(Config{Bounds: benchBounds, Objects: workload.Uniform(n, benchBounds, 42)})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := st.Insert(geom.Pt(float64((i*131)%9973)+1, float64((i*373)%9941)+1))
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Remove(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPublishSharesStructure asserts that an epoch publication copies a
// small fraction of the index and that snapshots pinned before the epoch
// keep answering from the old version.
func TestPublishSharesStructure(t *testing.T) {
	st, err := NewStore(Config{Bounds: benchBounds, Objects: workload.Uniform(5000, benchBounds, 7)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	old := st.Acquire()
	defer old.Release()
	q := geom.Pt(5000, 5000)
	before := old.Plane().KNN(q, 8)

	if _, err := st.Insert(geom.Pt(5000.5, 5000.5)); err != nil {
		t.Fatal(err)
	}
	copied, total := st.PlaneShareStats()
	if total == 0 || copied == 0 {
		t.Fatalf("share stats empty: copied=%d total=%d", copied, total)
	}
	if frac := float64(copied) / float64(total); frac > 0.25 {
		t.Fatalf("epoch copied %.0f%% of the index nodes (%d/%d); expected path copy, not full clone",
			100*frac, copied, total)
	}
	if pubs, tot := st.PublishStats(); pubs != 1 || tot <= 0 {
		t.Fatalf("publish stats: publishes=%d total=%v", pubs, tot)
	}

	// The pinned snapshot must be untouched by the publication.
	after := old.Plane().KNN(q, 8)
	if len(before) != len(after) {
		t.Fatalf("pinned snapshot changed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned snapshot changed: %v -> %v", before, after)
		}
	}
	cur := st.Acquire()
	defer cur.Release()
	if got := cur.Plane().KNN(q, 1); len(got) == 0 || got[0] == before[0] {
		t.Fatalf("new snapshot does not see the inserted object: %v", got)
	}
}

// failingDurability is a write-ahead hook that fails the next append once
// fail is set, as a full disk would.
type failingDurability struct{ fail bool }

func (d *failingDurability) AppendBatch(context.Context, uint64, []Mutation) error {
	if d.fail {
		d.fail = false
		return errors.New("disk full")
	}
	return nil
}

// bruteKNN returns the k objects of model nearest to q, ties by id.
func bruteKNN(model map[int]geom.Point, q geom.Point, k int) []int {
	closer := func(a, b int) bool {
		da, db := q.Dist2(model[a]), q.Dist2(model[b])
		return da < db || da == db && a < b
	}
	best := make([]int, 0, k+1) // ascending, at most k long
	for id := range model {
		i := len(best)
		for i > 0 && closer(id, best[i-1]) {
			i--
		}
		if i < k {
			best = slices.Insert(best, i, id)
			best = best[:min(len(best), k)]
		}
	}
	return best
}

// TestAbortedBatchIsDiscarded: a mixed batch of plane removes, plane
// inserts and a network insert whose durability append fails leaves
// nothing behind. The epoch, the next plane id and a pinned snapshot's
// answers are unchanged; the retried batch is a path copy of the published
// version, not a rebuild; and 200 churn batches later, with more aborts
// among them, every answer is still the brute-force kNN of a model the test
// keeps. The published version's face free list is non-empty throughout,
// so a branch that wrote into it would corrupt what the next branch reuses.
func TestAbortedBatchIsDiscarded(t *testing.T) {
	g, err := workload.Network(8, testBounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(Config{Bounds: testBounds, Objects: workload.Uniform(10000, testBounds, 13), Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dur := &failingDurability{}
	st.SetDurability(dur)

	const k = 6
	rng := rand.New(rand.NewSource(31))
	model := make(map[int]geom.Point)
	for _, id := range st.Current().Plane().IDs() {
		model[id] = st.Current().Plane().Point(id)
	}
	queries := make([]geom.Point, 16)
	for i := range queries {
		queries[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	probes := make([]roadnet.Position, 8)
	for i := range probes {
		probes[i] = roadnet.VertexPosition(rng.Intn(g.NumVertices()))
	}
	answers := func(s *Snapshot) string {
		out := ""
		for _, q := range queries {
			out += fmt.Sprint(s.Plane().KNN(q, k))
		}
		for _, p := range probes {
			out += fmt.Sprint(s.Network().KNN(p, 2))
		}
		return out
	}
	churn := func(removes, inserts int) []Mutation {
		live := make([]int, 0, len(model))
		for id := range model {
			live = append(live, id)
		}
		sort.Ints(live)
		var muts []Mutation
		for _, i := range rng.Perm(len(live))[:removes] {
			muts = append(muts, Mutation{ID: live[i]})
		}
		for i := 0; i < inserts; i++ {
			muts = append(muts, Mutation{Insert: true, P: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)})
		}
		rng.Shuffle(len(muts), func(i, j int) { muts[i], muts[j] = muts[j], muts[i] })
		return muts
	}
	apply := func(muts []Mutation) []int {
		t.Helper()
		ids, err := st.Apply(muts)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range muts {
			switch {
			case m.Network:
			case m.Insert:
				model[ids[i]] = m.P
			default:
				delete(model, m.ID)
			}
		}
		return ids
	}
	abort := func(muts []Mutation) {
		t.Helper()
		dur.fail = true
		if _, err := st.Apply(muts); !errors.Is(err, ErrDurability) {
			t.Fatalf("Apply with a failing append = %v, want ErrDurability", err)
		}
	}
	check := func(when string) {
		t.Helper()
		s := st.Acquire()
		defer s.Release()
		if s.Plane().Len() != len(model) {
			t.Fatalf("%s: %d live objects, model has %d", when, s.Plane().Len(), len(model))
		}
		for _, q := range queries {
			if got, want := s.Plane().KNN(q, k), bruteKNN(model, q, k); !equalIntsIdx(got, want) {
				t.Fatalf("%s: kNN at %v = %v, brute force %v", when, q, got, want)
			}
		}
	}

	// Removals leave recycled face slots in the published free list.
	apply(churn(24, 0))
	pinned := st.Acquire()
	defer pinned.Release()
	before, epoch, next := answers(pinned), st.Epoch(), pinned.Plane().NextID()

	muts := append(churn(8, 8), Mutation{Network: true, Insert: true, ID: firstFree(st, g)})
	abort(muts)
	if st.Epoch() != epoch || st.Current() != pinned {
		t.Fatalf("aborted batch published: epoch %d, want %d", st.Epoch(), epoch)
	}
	if got := st.Current().Plane().NextID(); got != next {
		t.Fatalf("aborted batch moved the next id to %d, want %d", got, next)
	}
	if answers(pinned) != before {
		t.Fatal("aborted batch changed the pinned snapshot's answers")
	}

	ids := apply(muts)
	want := next
	for i, m := range muts {
		if !m.Network && m.Insert {
			if ids[i] != want {
				t.Fatalf("retried insert %d got id %d, want %d", i, ids[i], want)
			}
			want++
		}
	}
	if copied, total := st.PlaneShareStats(); float64(copied) > 0.25*float64(total) {
		t.Fatalf("batch after the abort copied %d of %d pages; want a path copy", copied, total)
	}
	if answers(pinned) != before {
		t.Fatal("the retried batch changed the pinned snapshot's answers")
	}
	check("after the retried batch")

	for b := 0; b < 200; b++ {
		if b%20 == 7 {
			abort(churn(8, 8))
		}
		apply(churn(8, 8))
		check(fmt.Sprintf("churn batch %d", b))
	}
}
