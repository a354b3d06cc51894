package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/netvor"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// TestEngineObservability drives a small instrumented engine end to end
// and checks that every in-process pipeline stage fired, the gauges
// export, and a threshold-zero slow log captures batches with the
// request's trace ID. The snapshot gauges count shards, not sessions: once
// 256 sessions on 4 shards have updated and a mutation has been quiesced,
// the current snapshot carries the store's pin and one per shard and is the
// only one live; after Close none is. Run with -race: scrapes race against
// workers by design.
func TestEngineObservability(t *testing.T) {
	const shards, nSessions = 4, 256
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	slow := obs.NewSlowLog(slog.New(slog.NewTextHandler(&logBuf, nil)),
		obs.Thresholds{Batch: time.Nanosecond})
	pipe := obs.NewPipeline(reg, slow)
	e, err := New(Config{
		Shards:  shards,
		Bounds:  testBounds,
		Objects: workload.Uniform(200, testBounds, 1),
		Obs:     pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	batch := make([]LocationUpdate, nSessions)
	for i := range batch {
		sid, err := e.CreateSession(5, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = LocationUpdate{Session: sid, Pos: geom.Pt(10+float64(i), 10)}
	}
	sid := batch[0].Session
	sub := e.Stream().Subscribe(8, uint64(sid))
	defer sub.Close()

	trace := obs.NewTraceID()
	ctx := obs.WithTraceID(context.Background(), trace)
	if _, err := e.UpdateBatchCtx(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyMutations(ctx, []index.Mutation{{Insert: true, P: geom.Pt(11, 11)}}); err != nil {
		t.Fatal(err)
	}
	// Give the shards a moment to drain the epoch notification (sweep).
	deadline := time.Now().Add(2 * time.Second)
	for pipe.StageCount(obs.StageSweep) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.UpdateBatchCtx(ctx, []LocationUpdate{{Session: sid, Pos: geom.Pt(12, 12)}}); err != nil {
		t.Fatal(err)
	}
	// Quiesce: every shard moves to the newest snapshot before it answers.
	if _, err := e.Stats(); err != nil {
		t.Fatal(err)
	}

	for _, st := range []obs.Stage{obs.StageQueue, obs.StageApply, obs.StagePublish, obs.StageSweep, obs.StagePush} {
		if pipe.StageCount(st) == 0 {
			t.Errorf("stage %v never observed", st)
		}
	}
	if !strings.Contains(logBuf.String(), "trace="+trace) {
		t.Errorf("slow-batch log missing trace %s:\n%s", trace, logBuf.String())
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, want := range []string{
		`insq_shard_queue_depth{shard="0"}`,
		`insq_shard_sessions{shard="3"}`,
		fmt.Sprintf("insq_sessions %d\n", nSessions),
		"insq_epoch 1\n",
		fmt.Sprintf("insq_snapshot_pins %d\n", shards+1),
		"insq_snapshots_live 1\n",
		"insq_objects 201\n",
		"insq_stream_subscribers 1\n",
		fmt.Sprintf("insq_updates_total %d\n", nSessions+1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := e.store.LiveSnapshots(); n != 0 {
		t.Errorf("live snapshots after Close = %d, want 0", n)
	}
}

// TestEngineTableStoreGauges: the endpoint-table store's gauges and
// counters read the one store at scrape time. A fresh engine's store is
// empty, and may grow to a ring of ⌊2V/3⌋ entries per shard; a k = 20
// session walking a long route then fills it with 33-entry tables until it
// wraps, and the lookups by outcome are its shard's pinned endpoints.
func TestEngineTableStoreGauges(t *testing.T) {
	reg := obs.NewRegistry()
	g, sites := testNetwork(t, 40, 40, 240, 3)
	e, err := New(Config{Shards: 2, Network: g, NetworkSites: sites, Obs: obs.NewPipeline(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	scrape := func(st netvor.TableStats) {
		t.Helper()
		var expo strings.Builder
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		out := expo.String()
		for _, want := range []string{
			fmt.Sprintf("insq_table_ring_entries %d\n", st.Entries),
			fmt.Sprintf("insq_table_ring_entries_max %d\n", 2*(g.NumVertices()*2/3)),
			fmt.Sprintf("insq_table_lookups_total{outcome=\"hit\"} %d\n", st.Hits),
			fmt.Sprintf("insq_table_lookups_total{outcome=\"stale\"} %d\n", st.Stale),
			fmt.Sprintf("insq_table_lookups_total{outcome=\"absent\"} %d\n", st.Absent),
			fmt.Sprintf("insq_table_ring_wraps_total %d\n", st.Wraps),
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("the exposition lacks %q:\n%s", want, out)
			}
		}
	}
	scrape(netvor.TableStats{})
	sid, err := e.CreateNetworkSession(20, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadnet.RandomWalkRoute(g, 0, 8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for at := 0.0; at < route.Length(); at += 8 {
		if _, err := updateNetworkBatch(e, []NetworkLocationUpdate{{Session: sid, Pos: route.PositionAt(at)}}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	st, cnt := e.tables.Stats(), stats.Counters
	if st.Entries != st.Max || st.Wraps == 0 || st.Hits == 0 {
		t.Fatalf("a k = 20 session walking %.0f units left a store of %d of %d entries, %d wraps, %d hits", route.Length(), st.Entries, st.Max, st.Wraps, st.Hits)
	}
	if st.Hits != uint64(cnt.AnchorTableHits) || st.Stale+st.Absent != uint64(cnt.AnchorBuilds) {
		t.Fatalf("the store counted %d hits and %d misses, the session %d table hits and %d builds", st.Hits, st.Stale+st.Absent, cnt.AnchorTableHits, cnt.AnchorBuilds)
	}
	scrape(st)
}

// TestEngineObsDisabled pins the noop invariant: a nil pipeline engine
// serves normally and records nothing.
func TestEngineObsDisabled(t *testing.T) {
	e := newTestEngine(t, 100, 2)
	sid, err := e.CreateSession(3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := updateBatch(e, []LocationUpdate{{Session: sid, Pos: geom.Pt(5, 5)}}); err != nil {
		t.Fatal(err)
	}
	var p *obs.Pipeline
	if p.StageCount(obs.StageApply) != 0 || p.Enabled() {
		t.Error("nil pipeline not inert")
	}
	if err := p.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}
