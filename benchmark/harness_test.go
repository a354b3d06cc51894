package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func TestMedianAndSeries(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median even = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// One disturbed window must not move the reported value.
	s := newSeries([]float64{100, 101, 12, 99, 102}, []int{7, 7, 7, 7, 7})
	if s.Median != 100 || s.Min != 12 || s.Max != 102 {
		t.Errorf("series = %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestAllowedPercentile(t *testing.T) {
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n         int
		want, got float64
	}{
		{n: 15, want: 95, got: 50},
		{n: 100, want: 95, got: 90},
		{n: 199, want: 95, got: 90},
		{n: 200, want: 95, got: 95},
		{n: 999, want: 99, got: 95},
		{n: 1000, want: 99, got: 99},
		{n: 100000, want: 95, got: 95}, // never above what was asked
		{n: 0, want: 99, got: 50},
	} {
		if got := allowedPercentile(c.n, c.want); got != c.got {
			t.Errorf("allowedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// The open-loop mutator is timed from each call's due time; a call belongs
// to the window it was due in, however late it ran or was acknowledged.
func TestDueTimeAccounting(t *testing.T) {
	ms := int64(time.Millisecond)
	d := &phaseData{
		bounds: []int64{100 * ms, 200 * ms, 300 * ms},
		cpu:    []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond},
		ops: []op{
			{end: 150 * ms, lat: 2 * ms, n: 4, ok: 4},
			{end: 260 * ms, lat: 1 * ms, n: 4, ok: 3}, // one entry failed: priced at the timeout
			{end: 50 * ms, lat: 1 * ms, n: 4, ok: 4},  // warm-up: ignored
		},
		muts: []mutOp{
			// Due in window 0, started 30 ms late, acknowledged in window 1:
			// charged to window 0 with the full 120 ms.
			{due: 190 * ms, late: 30 * ms, lat: 120 * ms, n: 1, ok: true},
			{due: 210 * ms, late: 0, lat: 1 * ms, n: 1, ok: true},
			{due: 220 * ms, late: 1 * ms, lat: 3 * ms, n: 1, ok: false},
			{due: 90 * ms, late: 0, lat: 1 * ms, n: 1, ok: true}, // warm-up
		},
		pushes: []pushSample{{due: 190 * ms, lat: 125 * ms}, {due: 210 * ms, lat: 2 * ms}},
		lost:   1,
		// Counter ratios are taken window by window from the boundary readings.
		engStat: []engine.Stats{
			{Counters: metrics.Counters{Timestamps: 100, Recomputations: 10, ObjectsShipped: 300, DistanceCalcs: 50, NodeVisits: 7}},
			{Counters: metrics.Counters{Timestamps: 300, Recomputations: 110, ObjectsShipped: 3300, DistanceCalcs: 450, NodeVisits: 107}},
			{Counters: metrics.Counters{Timestamps: 400, Recomputations: 135, ObjectsShipped: 3400, DistanceCalcs: 450, NodeVisits: 107, EdgeRelaxations: 900}},
		},
	}
	w := condense(d)
	if got := w.RecomputePct.Windows; len(got) != 2 || got[0] != 50 || got[1] != 25 {
		t.Errorf("recompute rate per window = %v, want [50 25]", got)
	}
	if got := w.ShippedPerUp.Windows; got[0] != 15 || got[1] != 1 {
		t.Errorf("objects shipped per update = %v, want [15 1]", got)
	}
	if got := w.SearchPerUp.Windows; got[0] != 2.5 || got[1] != 9 {
		t.Errorf("search steps per update = %v, want [2.5 9]", got)
	}
	if got := w.RecomputePct.Samples; got[0] != 200 || got[1] != 100 {
		t.Errorf("updates behind the counter ratios = %v, want [200 100]", got)
	}
	if got := w.MutP50US.Windows; len(got) != 2 || got[0] != 120000 {
		t.Errorf("mutation p50 per window = %v, want the late call (120000 us) in window 0", got)
	}
	if got := w.MutP50US.Samples; got[0] != 1 || got[1] != 2 {
		t.Errorf("mutation samples per window = %v, want [1 2]", got)
	}
	if w.MutationsFailed != 1 || w.Mutations != 3 {
		t.Errorf("mutations %d failed %d, want 3 and 1", w.Mutations, w.MutationsFailed)
	}
	if w.LatenessMaxUS != 30000 {
		t.Errorf("lateness max = %v us, want 30000", w.LatenessMaxUS)
	}
	if got := w.PushP50US.Windows; got[0] != 125000 || got[1] != 2000 {
		t.Errorf("push p50 per window = %v", got)
	}
	if w.Pushes != 3 || w.PushesLost != 1 {
		t.Errorf("pushes %d lost %d, want 3 and 1", w.Pushes, w.PushesLost)
	}
	if got := w.UpdatesPerS.Windows; got[0] != 40 || got[1] != 30 {
		t.Errorf("updates/s per window = %v, want [40 30]", got)
	}
	if w.Updates != 8 || w.UpdatesFailed != 1 {
		t.Errorf("updates %d failed %d, want 8 and 1", w.Updates, w.UpdatesFailed)
	}
	// The call with a failed entry misses every latency limit.
	if got := w.UpdateP50US.Windows[1]; got != float64(requestTimeout.Microseconds()) {
		t.Errorf("window 1 latency = %v us, want the request timeout", got)
	}
	// With one call per window no tail percentile is supported.
	if w.P95Rule != 50 {
		t.Errorf("tail percentile used = %v, want 50", w.P95Rule)
	}
	if got := w.CPUPerUpUS.Windows; got[0] != 2500 || math.Abs(got[1]-20000.0/3) > 1e-9 {
		t.Errorf("cpu us per update = %v", got)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
		{ID: 6, Name: "lonely", Start: 5, End: 6},
	}
	got := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of its 100.
	if got["parent"] != 50 {
		t.Errorf("parent self = %d, want 50", got["parent"])
	}
	// Child self time: 20 + (30-10) + 30.
	if got["child"] != 70 {
		t.Errorf("child self = %d, want 70", got["child"])
	}
	if got["grandchild"] != 10 || got["lonely"] != 1 {
		t.Errorf("self times = %v", got)
	}
}

func TestTracerOffIsInert(t *testing.T) {
	var tr *tracer
	b := tr.buf()
	b.add(b.id(), 0, 0, "x", 0, 1)
	if b != nil || len(tr.all()) != 0 {
		t.Error("nil tracer recorded something")
	}
	on := &tracer{}
	ob := on.buf()
	id := ob.id()
	ob.add(ob.id(), id, id, "inner", 2, 3)
	ob.add(id, 0, id, "outer", 1, 4)
	if all := on.all(); len(all) != 2 || all[0].Name != "outer" || all[1].Parent != all[0].ID {
		t.Errorf("spans = %+v", on.all())
	}
}

// A deliberately corrupted answer must be counted as a failed operation.
func TestOracleCountsCorruptedAnswer(t *testing.T) {
	for _, name := range []string{"plane_engine", "network_engine"} {
		sp, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := generate(sp.smoke(), 3)
		if err != nil {
			t.Fatal(err)
		}
		mdl := newModel(in)
		o, err := newOracle(in, mdl)
		if err != nil {
			t.Fatal(err)
		}
		// Right answers, computed independently of the oracle's own path.
		at := make([]int, in.sp.Sessions)
		answers := make([][]int, in.sp.Sessions)
		for i := range answers {
			answers[i] = referenceKNN(t, in, mdl, o, i, at[i])
		}
		if wrong := o.countWrong(at, answers); wrong != 0 {
			t.Fatalf("%s: %d right answers judged wrong", name, wrong)
		}
		// Corrupt three: a far object swapped in, a dropped neighbor, a
		// duplicated one.
		far := farObject(in, mdl, answers[1])
		answers[1] = append([]int{far}, answers[1][1:]...)
		answers[2] = answers[2][:len(answers[2])-1]
		answers[3] = append(answers[3][:len(answers[3])-1:len(answers[3])-1], answers[3][0])
		if wrong := o.countWrong(at, answers); wrong != 3 {
			t.Errorf("%s: %d wrong answers found, want 3", name, wrong)
		}
	}
}

// referenceKNN ranks every live object by distance the slow way.
func referenceKNN(t *testing.T, in *inputs, mdl *model, o *oracle, i, j int) []int {
	t.Helper()
	type cand struct {
		id int
		d  float64
	}
	var cands []cand
	if in.sp.Network {
		pos := in.netAt(i, j)
		dist := o.g.ShortestDistances(pos.Sources(o.g), -1)
		for v := range mdl.sites {
			cands = append(cands, cand{v, dist[v]})
		}
	} else {
		q := in.planeAt(i, j)
		for id, p := range mdl.points {
			cands = append(cands, cand{id, q.Dist(p)})
		}
	}
	k := in.k[i]
	out := make([]int, 0, k)
	for len(out) < k {
		best := -1
		for c := range cands {
			if best < 0 || cands[c].d < cands[best].d {
				best = c
			}
		}
		out = append(out, cands[best].id)
		cands[best].d = math.Inf(1)
	}
	return out
}

// farObject returns some live object that is not in answer: swapped in for
// the nearest neighbor it makes the answer wrong, however near it is.
func farObject(in *inputs, mdl *model, answer []int) int {
	inAnswer := make(map[int]bool)
	for _, id := range answer {
		inAnswer[id] = true
	}
	if in.sp.Network {
		for v := range mdl.sites {
			if !inAnswer[v] {
				return v
			}
		}
	}
	for id := range mdl.points {
		if !inAnswer[id] {
			return id
		}
	}
	return -1
}

func TestAnswerMatchesAcceptsTies(t *testing.T) {
	dists := map[int]float64{1: 1, 2: 2, 3: 2, 4: 5}
	dist := func(id int) (float64, bool) { d, ok := dists[id]; return d, ok }
	want := []float64{1, 2}
	if !answerMatches([]int{1, 2}, want, dist) || !answerMatches([]int{3, 1}, want, dist) {
		t.Error("either tied object is a right answer")
	}
	if answerMatches([]int{1, 4}, want, dist) {
		t.Error("a farther object is not")
	}
	if answerMatches([]int{1, 9}, want, dist) {
		t.Error("an object that is not live is not")
	}
}

func TestPushTrackerEitherOrder(t *testing.T) {
	tr := newPushTracker()
	tr.base = time.Now()
	call := tr.base.Add(10 * time.Millisecond)

	// Registration first, event second.
	tr.expect(7, pendingPush{due: int64(9 * time.Millisecond), called: call})
	tr.received([]int{7, 99}, tr.base.Add(12*time.Millisecond))
	// Event first (it beat the insert's return), registration second.
	tr.received([]int{8}, tr.base.Add(11*time.Millisecond))
	tr.expect(8, pendingPush{due: int64(9 * time.Millisecond), called: call})
	// A stale event for a recycled id (older than the call) does not count.
	tr.received([]int{5}, tr.base.Add(1*time.Millisecond))
	tr.expect(5, pendingPush{due: int64(9 * time.Millisecond), called: call})

	if len(tr.samples) != 2 || tr.samples[0].lat != int64(3*time.Millisecond) || tr.samples[1].lat != int64(2*time.Millisecond) {
		t.Errorf("samples = %+v", tr.samples)
	}
	if tr.outstanding() != 1 {
		t.Errorf("outstanding = %d, want 1 (id 5)", tr.outstanding())
	}
	tr.forget(5) // removed before its event came: lost
	tr.forget(7) // already delivered: not lost
	if tr.lost != 1 || tr.outstanding() != 0 {
		t.Errorf("lost = %d outstanding = %d", tr.lost, tr.outstanding())
	}
}

func TestCursorPingPong(t *testing.T) {
	var c cursor
	var got []int
	for i := 0; i < 9; i++ {
		got = append(got, c.next(4))
	}
	want := []int{1, 2, 3, 2, 1, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cursor walk = %v, want %v", got, want)
		}
	}
}

func TestRegistryScrapeDelta(t *testing.T) {
	reg := obs.NewRegistry()
	pipe := obs.NewPipeline(reg, nil)
	reg.CounterFunc("insq_ingest_frames_total", "frames", func() float64 { return 42 })
	for i := 0; i < 100; i++ {
		pipe.Observe(obs.StageApply, time.Millisecond)
	}
	before, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		pipe.Observe(obs.StageApply, 10*time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		pipe.Observe(obs.StageApply, 100*time.Microsecond)
	}
	pipe.Observe(obs.StageSweep, 5*time.Millisecond)
	after, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	if after.scalars["insq_ingest_frames_total"] != 42 {
		t.Errorf("scalars = %v", after.scalars)
	}
	d := stageDelta(before, after)
	ap := d["apply"]
	if ap.Count != 400 || math.Abs(ap.SumUS-13000) > 1 {
		t.Errorf("apply delta = %+v, want 400 observations summing to 13000 us", ap)
	}
	// Bucket edges are within 12.5% above the value.
	if ap.P50US < 10 || ap.P50US > 11.5 {
		t.Errorf("apply p50 = %v us, want ~10", ap.P50US)
	}
	if ap.P99US < 100 || ap.P99US > 115 {
		t.Errorf("apply p99 = %v us, want ~100", ap.P99US)
	}
	if sw := d["sweep"]; sw.Count != 1 || sw.P50US < 5000 || sw.P50US > 5700 {
		t.Errorf("sweep delta = %+v", sw)
	}
	// A nil registry (observability off) scrapes as empty.
	if s, err := scrapeRegistry(nil); err != nil || len(s.stages) != 0 {
		t.Errorf("nil registry scrape = %+v, %v", s, err)
	}
}

func TestParseResultLine(t *testing.T) {
	out := bytes.NewBufferString("table line\n\n" +
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n")
	res, err := parseResultLine(out)
	if err != nil || !res.Correct || res.Attempted != 10 || res.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("parsed %+v, %v", res, err)
	}
	if _, err := parseResultLine(bytes.NewBufferString("no json here\n")); err == nil {
		t.Error("garbage parsed as a result")
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in this
// package are what the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, tables have %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

// The smoke runs push every workload through the whole harness — set-up,
// windows, oracle, crash recovery, and for the traced run every probe and
// the trace file — at a size where the numbers mean nothing.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := runCfg{sp: w, seed: 5, seconds: 0.5, outDir: t.TempDir(), setupReps: 2, probe: fullProbes}.smoked()
			rec, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d checks=%+v", res.Correct, res.Attempted, res.Failed, rec.Checks)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive %s value", m.Name, v, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(endToEnd))
			}
			if rec.Checks.OracleSessions != cfg.sp.Sessions || rec.Checks.TailMutations != cfg.sp.TailMuts {
				t.Errorf("checks = %+v", rec.Checks)
			}
			if rec.Recovery.ReplayedMuts != uint64(cfg.sp.TailMuts) {
				t.Errorf("recovery replayed %d mutations, want the %d-mutation tail", rec.Recovery.ReplayedMuts, cfg.sp.TailMuts)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"serve_pipeline", "network_engine"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cfg := runCfg{sp: w, seed: 6, seconds: 0.5, traced: true, outDir: dir, setupReps: 1, probe: fullProbes}.smoked()
			rec, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Errorf("correct=%v failed=%d checks=%+v", rec.Result.Correct, rec.Result.Failed, rec.Checks)
			}
			if len(rec.Result.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics printed, %d declared", len(rec.Result.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := rec.Result.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v)", m.Name, v, ok)
				}
			}
			// Every number a probe or a live stage produces for a layer the
			// workload uses is really measured; the layers it does not use
			// read 0.
			used := []string{"caller.updates_per_s", "caller.push_p50_us", "caller.recovery_s", "engine.batch_us_p50",
				"index.apply_us_p50", "wal.append_us_p50", "wal.checkpoint_load_s", "stream.publish_ns"}
			wire := []string{"client.rtt_p50_us", "api.encode_batch_ns", "server.push_us_p50"}
			plane := []string{"core.update_ns_recompute", "vortree.knn_ns"}
			network := []string{"core.net_update_ns_recompute", "netvor.knn_ns"}
			unused := append(append([]string(nil), wire...), plane...)
			if w.Serve {
				used, unused = append(append(used, wire...), plane...), network
			} else {
				used = append(used, network...)
			}
			for _, m := range used {
				if !(rec.Result.Metrics[m].Value > 0) {
					t.Errorf("%s = %v, want > 0", m, rec.Result.Metrics[m].Value)
				}
			}
			for _, m := range unused {
				if rec.Result.Metrics[m].Value != 0 {
					t.Errorf("%s = %v on a workload that does not use the layer, want 0", m, rec.Result.Metrics[m].Value)
				}
			}
			data, err := os.ReadFile(rec.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || len(tf.Ledger) == 0 || tf.Workload != name {
				t.Errorf("trace file has %d spans, %d ledger rows, workload %q", len(tf.Spans), len(tf.Ledger), tf.Workload)
			}
		})
	}
}
