package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
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
// request's trace ID. Once 256 sessions on 4 shards have updated and a
// mutation has been quiesced, every shard reads an epoch lag of 0. Run with
// -race: scrapes race against workers by design.
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
	for stageCount(reg, obs.StageSweep) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.UpdateBatchCtx(ctx, []LocationUpdate{{Session: sid, Pos: geom.Pt(12, 12)}}); err != nil {
		t.Fatal(err)
	}
	quiesce(t, e)

	for _, st := range []obs.Stage{obs.StageQueue, obs.StageApply, obs.StagePublish, obs.StageSweep, obs.StagePush} {
		if stageCount(reg, st) == 0 {
			t.Errorf("stage %v never observed", st)
		}
	}
	if !strings.Contains(logBuf.String(), "trace="+trace) {
		t.Errorf("slow-batch log missing trace %s:\n%s", trace, logBuf.String())
	}

	out := exposition(t, reg)
	wants := []string{
		`insq_shard_queue_depth{shard="0"}`,
		`insq_shard_sessions{shard="3"}`,
		fmt.Sprintf("insq_sessions %d\n", nSessions),
		"insq_epoch 1\n",
		"insq_objects 201\n",
		"insq_stream_subscribers 1\n",
		fmt.Sprintf("insq_updates_total %d\n", nSessions+1),
	}
	for i := 0; i < shards; i++ {
		wants = append(wants, fmt.Sprintf("insq_shard_epoch_lag{shard=\"%d\"} 0\n", i))
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Both snapshot pin gauges, the pin count and the live count, are gone.
	if strings.Contains(out, "insq_snapshot") {
		t.Errorf("exposition still carries a snapshot pin gauge:\n%s", out)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStatsMatchesRegistry: Engine.Stats and the /metrics gauges read
// each serving total through the same helper, so after a batch, a
// mutation, a batch whose deadline has passed and a batch shed at a
// stalled shard, every total reads the same in both, and none is zero.
func TestEngineStatsMatchesRegistry(t *testing.T) {
	defer fault.DisarmAll()
	const shards, nSessions = 2, 6
	reg := obs.NewRegistry()
	e, err := New(Config{
		Shards:    shards,
		Bounds:    testBounds,
		Objects:   workload.Uniform(200, testBounds, 1),
		Obs:       obs.NewPipeline(reg, nil),
		ShedDepth: 1,
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
	if _, err := updateBatch(e, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyMutations(context.Background(), []index.Mutation{{Insert: true, P: geom.Pt(11, 11)}}); err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.UpdateBatchCtx(gone, batch[:1]); err != nil {
		t.Fatal(err)
	}

	// Stall the worker in one batch and park a message in its mailbox:
	// the next batch meets a mailbox at the watermark and is shed.
	one := batch[:1]
	sh := e.shardOf(one[0].Session)
	before := fault.ShardApplyDelay.Fires()
	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 200 * time.Millisecond, Count: 1})
	done := make(chan error, 1)
	go func() { _, err := updateBatch(e, one); done <- err }()
	for fault.ShardApplyDelay.Fires() == before {
		time.Sleep(time.Millisecond)
	}
	sh.mailbox <- stateMsg{sid: one[0].Session, reply: make(chan stateReply, 1)}
	if _, err := updateBatch(e, one); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch at a full mailbox: err = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	out := exposition(t, reg)
	for _, c := range []struct {
		name  string
		stats float64
	}{
		{"insq_sessions", float64(st.Sessions)},
		{"insq_updates_total", float64(st.Updates)},
		{"insq_epoch", float64(st.Epoch)},
		{"insq_objects", float64(st.Objects)},
		{"insq_expired_total", float64(st.Expired)},
		{"insq_shed_total", float64(st.Shed)},
	} {
		got := sampleValue(t, out, c.name)
		if got != c.stats || got == 0 {
			t.Errorf("%s = %v, Stats reads %v; want equal and non-zero", c.name, got, c.stats)
		}
	}
}

// TestStatsAnswersDuringShardStall: Stats enqueues nothing on the shards,
// so it answers while a shard is stalled in a batch, with the counters the
// shard posted at the end of its previous batch.
func TestStatsAnswersDuringShardStall(t *testing.T) {
	e := newTestEngine(t, 200, 2)
	sid, err := e.CreateSession(5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	move := []LocationUpdate{{Session: sid, Pos: geom.Pt(500, 500)}}
	if _, err := updateBatch(e, move); err != nil {
		t.Fatal(err)
	}
	before := fault.ShardApplyDelay.Fires()
	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 2 * time.Second, Count: 1})
	defer fault.ShardApplyDelay.Disarm()
	done := make(chan error, 1)
	go func() { _, err := updateBatch(e, move); done <- err }()
	for fault.ShardApplyDelay.Fires() == before {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	select {
	case err := <-done:
		t.Fatalf("Stats returned only after the stalled batch (batch err %v, Stats took %v)", err, took)
	default:
	}
	if took > time.Second {
		t.Errorf("Stats took %v behind a stalled shard", took)
	}
	if st.Sessions != 1 || st.Updates != 1 || st.Counters.Timestamps != 1 {
		t.Errorf("stats during the stall: sessions %d, updates %d, counters %v; want 1, 1, one timestamp", st.Sessions, st.Updates, st.Counters)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// sampleValue returns the value of the unlabelled sample name in an
// exposition.
func sampleValue(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}

// TestEngineShardEpochLag: a shard stalled in a batch while a mutation
// publishes is the one whose insq_shard_epoch_lag reads ≥ 1; the others
// sweep to the new snapshot and read 0, and once the stalled shard is
// released every lag reads 0 again.
func TestEngineShardEpochLag(t *testing.T) {
	const shards = 3
	reg := obs.NewRegistry()
	e, err := New(Config{
		Shards:  shards,
		Bounds:  testBounds,
		Objects: workload.Uniform(200, testBounds, 1),
		Obs:     obs.NewPipeline(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Session ids route by id mod Shards; find one on shard 1.
	var stalled SessionID
	for {
		sid, err := e.CreateSession(5, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		if sid%shards == 1 {
			stalled = sid
			break
		}
	}
	lag := func(out string, shard int) string {
		prefix := fmt.Sprintf("insq_shard_epoch_lag{shard=\"%d\"} ", shard)
		for _, line := range strings.Split(out, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return v
			}
		}
		t.Fatalf("exposition has no %s line", prefix)
		return ""
	}

	before := fault.ShardApplyDelay.Fires()
	fault.ShardApplyDelay.Arm(fault.Spec{Delay: 500 * time.Millisecond, Count: 1})
	defer fault.ShardApplyDelay.Disarm()
	done := make(chan error, 1)
	go func() {
		_, err := updateBatch(e, []LocationUpdate{{Session: stalled, Pos: geom.Pt(100, 100)}})
		done <- err
	}()
	for fault.ShardApplyDelay.Fires() == before {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.ApplyMutations(context.Background(), []index.Mutation{{Insert: true, P: geom.Pt(11, 11)}}); err != nil {
		t.Fatal(err)
	}
	// The free shards sweep on the epoch notification; wait until they have.
	deadline := time.Now().Add(400 * time.Millisecond)
	out := exposition(t, reg)
	for (lag(out, 0) != "0" || lag(out, 2) != "0") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		out = exposition(t, reg)
	}
	for _, sh := range []int{0, 2} {
		if v := lag(out, sh); v != "0" {
			t.Errorf("free shard %d lag = %s, want 0", sh, v)
		}
	}
	if v := lag(out, 1); v == "0" {
		t.Errorf("stalled shard 1 lag = %s, want >= 1", v)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	quiesce(t, e)
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 1 {
		t.Errorf("snapshots held after the stall = %d, want 1", st.Snapshots)
	}
	out = exposition(t, reg)
	for sh := 0; sh < shards; sh++ {
		if v := lag(out, sh); v != "0" {
			t.Errorf("shard %d lag after release = %s, want 0", sh, v)
		}
	}
}

// stageCount reads one stage's observation count from the registry's
// insq_stage_duration_seconds family (0 on a nil registry).
func stageCount(reg *obs.Registry, st obs.Stage) uint64 {
	return reg.Histogram("insq_stage_duration_seconds", "", obs.Label{Name: "stage", Value: st.String()}).Count()
}

// exposition renders reg in the Prometheus text format.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	return expo.String()
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
	if stageCount(p.Registry(), obs.StageApply) != 0 || p.Enabled() {
		t.Error("nil pipeline not inert")
	}
	if err := p.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}
