package core

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// TestPinnedLogOverflowConvergesPlane pushes a pinned plane session far
// past the store's bounded op log with churn that DOES change the true
// answer near the query. The conservative full re-pin path must not just
// recompute — it must converge to exactly the fresh-snapshot oracle.
func TestPinnedLogOverflowConvergesPlane(t *testing.T) {
	st, err := index.NewStore(index.Config{
		Bounds:   pinnedBounds,
		Objects:  workload.Uniform(50, pinnedBounds, 5),
		LogDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q, err := newPlaneOnStore(st, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.Pt(500, 500)
	if _, err := q.Update(pos); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		recomps := q.Metrics().Recomputations
		// A cluster of inserts right next to the query position — these
		// replace the whole kNN set — plus one removal of a current
		// neighbor, all while the session is pinned to an old epoch. Eight
		// ops against a 2-deep log: OpsSince cannot cover the gap.
		cur, err := q.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Remove(cur[0]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			d := float64(round*8 + i + 1)
			if _, err := st.Insert(geom.Pt(500+d, 500-d)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := q.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if n := q.Metrics().Recomputations; n != recomps+1 {
			t.Fatalf("round %d: recomputations = %d, want %d (overflow must take the full re-pin path)", round, n, recomps+1)
		}
		if q.Epoch() != st.Epoch() {
			t.Fatalf("round %d: re-pinned at epoch %d, store at %d", round, q.Epoch(), st.Epoch())
		}
		want := st.Current().Plane().KNN(pos, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: overflowed session answered %v, fresh snapshot says %v", round, got, want)
		}
	}
}

// TestPinnedLogOverflowConvergesNetwork is the road-network mirror: site
// churn past the log capacity must drive the pinned session through the
// full re-pin and land exactly on the fresh-snapshot oracle.
func TestPinnedLogOverflowConvergesNetwork(t *testing.T) {
	g, err := roadnet.GridNetwork(5, 5, pinnedBounds, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := index.NewStore(index.Config{
		Network:      g,
		NetworkSites: []int{0, 6, 12, 18, 24},
		LogDepth:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q, err := newNetOnStore(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	pos := roadnet.VertexPosition(7)
	if _, err := q.Update(pos); err != nil {
		t.Fatal(err)
	}

	// Site churn that changes the answer around vertex 7 (inserts at its
	// neighborhood, removal of a seed site), five ops against a 2-deep log.
	for _, v := range []int{2, 8, 11} {
		if err := st.InsertSite(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.RemoveSite(6); err != nil {
		t.Fatal(err)
	}
	if err := st.InsertSite(13); err != nil {
		t.Fatal(err)
	}
	recomps := q.Metrics().Recomputations
	got, err := q.Update(pos)
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Metrics().Recomputations; n != recomps+1 {
		t.Fatalf("recomputations = %d, want %d (overflow must take the full re-pin path)", n, recomps+1)
	}
	if q.Epoch() != st.Epoch() {
		t.Fatalf("re-pinned at epoch %d, store at %d", q.Epoch(), st.Epoch())
	}
	want, _ := st.Current().Network().KNNWithDistances(pos, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overflowed session answered %v, fresh snapshot says %v", got, want)
	}
}
