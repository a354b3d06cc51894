package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// perLayer is the per-layer ledger: what each layer did, how long it was
// busy and how long work waited for it, outermost layer first. None of
// these has a regression bound; they exist to say where an end-to-end
// change came from. README.md lists, for each, the end-to-end metric and
// workload it is expected to move.
var perLayer = []metricDef{
	// What the caller sees, as measured on this machine: the timings the
	// issue listed as end-to-end (metrics.go says why they are not gated).
	{Name: "caller.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "caller.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "caller.update_p95_us", Unit: "us", Better: "lower"},
	{Name: "caller.cpu_us_per_update", Unit: "us", Better: "lower"},
	{Name: "caller.mutation_p50_us", Unit: "us", Better: "lower"},
	{Name: "caller.push_p50_us", Unit: "us", Better: "lower"},
	{Name: "caller.recovery_s", Unit: "s", Better: "lower"},

	{Name: "client.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.send_ns_per_frame", Unit: "ns", Better: "lower"},

	{Name: "api.encode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "api.decode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "api.decode_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "api.bytes_per_update", Unit: "B", Better: "lower"},

	{Name: "server.decode_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.queue_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.coalesce_factor", Unit: "ratio", Better: "higher"},
	{Name: "server.frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.push_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},

	{Name: "engine.batch_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.batch_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.queue_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.overhead_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_update", Unit: "count", Better: "lower"},
	{Name: "engine.sweep_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.shed_total", Unit: "count", Better: "lower"},
	{Name: "engine.expired_total", Unit: "count", Better: "lower"},

	{Name: "core.validate_pct", Unit: "%", Better: "higher"},
	{Name: "core.rerank_pct", Unit: "%", Better: "lower"},
	{Name: "core.recompute_pct", Unit: "%", Better: "lower"},
	{Name: "core.update_ns_validate", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns_rerank", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns_recompute", Unit: "ns", Better: "lower"},
	{Name: "core.net_update_ns_validate", Unit: "ns", Better: "lower"},
	{Name: "core.net_update_ns_recompute", Unit: "ns", Better: "lower"},
	{Name: "core.ins_size_mean", Unit: "count", Better: "lower"},
	{Name: "core.invalidated_per_mutation", Unit: "count", Better: "lower"},

	{Name: "vortree.knn_ns", Unit: "ns", Better: "lower"},
	{Name: "vortree.node_visits_per_knn", Unit: "count", Better: "lower"},
	{Name: "vortree.ins_ns", Unit: "ns", Better: "lower"},
	{Name: "vortree.insert_us", Unit: "us", Better: "lower"},
	{Name: "vortree.remove_us", Unit: "us", Better: "lower"},

	{Name: "netvor.knn_ns", Unit: "ns", Better: "lower"},
	{Name: "netvor.relaxations_per_update", Unit: "count", Better: "lower"},
	{Name: "netvor.subnetwork_ns", Unit: "ns", Better: "lower"},
	{Name: "netvor.insert_us", Unit: "us", Better: "lower"},
	{Name: "netvor.proj_rebuilds", Unit: "count", Better: "lower"},

	{Name: "index.apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.publish_us_mean", Unit: "us", Better: "lower"},
	{Name: "index.shared_node_ratio", Unit: "%", Better: "higher"},
	{Name: "index.snapshots_live", Unit: "count", Better: "lower"},

	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_mutation", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "wal.fsync_mean_us", Unit: "us", Better: "lower"},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "wal.checkpoint_load_s", Unit: "s", Better: "lower"},

	{Name: "stream.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.coalesced_pct", Unit: "%", Better: "lower"},
	{Name: "stream.dropped_total", Unit: "count", Better: "lower"},

	{Name: "ledger.accounted_pct", Unit: "%", Better: "higher"},
	{Name: "ledger.unaccounted_pct", Unit: "%", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// ledgerRow is one layer's busy time over the traced windows.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	Source string  `json:"source"`
	BusyUS float64 `json:"busy_us"`
	Pct    float64 `json:"pct_of_cpu"`
}

// tracedRecord is the full account of a traced run.
type tracedRecord struct {
	Stamp     stamp              `json:"stamp"`
	Spec      spec               `json:"spec"`
	Reference windowed           `json:"reference_untraced"`
	Traced    windowed           `json:"traced"`
	Stages    map[string]stageAg `json:"stages"`
	Ledger    []ledgerRow        `json:"ledger"`
	CPUUS     float64            `json:"cpu_us"`
	SelfNS    map[string]int64   `json:"span_self_ns"`
	Recovery  recoveryTimes      `json:"recovery"`
	Checks    checks             `json:"checks"`
	PerLayer  map[string]value   `json:"per_layer"`
	TraceFile string             `json:"trace_file"`
	Result    result             `json:"result"`
}

// runTraced produces the per-layer ledger. The workload runs twice for
// tracedWindows windows each: once exactly as the end-to-end run does
// (the reference), once with observability on and harness spans recorded.
// The throughput difference is the tracing overhead; the second run's
// registry, engine counters and spans, plus microprobes on the quiesced
// system, give every per-layer number.
func runTraced(c runCfg) (*tracedRecord, error) {
	in, err := generate(c.sp, c.seed)
	if err != nil {
		return nil, err
	}
	scratch, err := c.scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rec := &tracedRecord{Stamp: c.stamp(tracedWindows), Spec: c.sp}
	phase := phaseCfg{warm: c.warm, window: c.window(), windows: tracedWindows}

	ref, err := setup(in, filepath.Join(scratch, "data-ref"), c.sp.Serve)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rec.Reference = condense(runPhase(ref, phase))
	ref.close()
	runtime.GC()

	sys, err := setup(in, filepath.Join(scratch, "data-traced"), true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	sys.probe = c.probe
	tr := &tracer{}
	phase.tr = tr
	d := runPhase(sys, phase)
	rec.Traced = condense(d)
	if len(d.stages) != tracedWindows+1 || len(d.engStat) != tracedWindows+1 {
		return nil, fmt.Errorf("traced phase sampled %d registries and %d engine stats, want %d", len(d.stages), len(d.engStat), tracedWindows+1)
	}
	rec.Stages = stageDelta(d.stages[0], d.stages[tracedWindows])
	spans := tr.all()

	ep, err := sys.engineProbe()
	if err != nil {
		return nil, err
	}
	// The wire layers are probed where the workload uses them; elsewhere
	// their metrics read 0.
	var wp wireProbeOut
	var cp codecProbeOut
	if c.sp.Serve {
		if wp, err = sys.wireProbe(); err != nil {
			return nil, err
		}
		cp = codecProbe(in, c.probe.CodecIters)
	}
	refused := sys.refused.Load() + wp.refused
	if rec.Recovery, err = sys.crashAndRecover(scratch, &rec.Checks, true); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	pp, np, err := spaceProbe(in, c.probe)
	if err != nil {
		return nil, err
	}

	// Live counters over the traced windows.
	first, last := d.engStat[0], d.engStat[tracedWindows]
	secs := float64(d.bounds[tracedWindows]-d.bounds[0]) / 1e9
	cnt := last.Counters
	sub := func(a, b int) float64 { return float64(a - b) }
	steps := sub(cnt.Timestamps, first.Counters.Timestamps)
	validations := sub(cnt.Validations, first.Counters.Validations)
	invalid := sub(cnt.Invalidations, first.Counters.Invalidations)
	recomputes := sub(cnt.Recomputations, first.Counters.Recomputations)
	shipped := sub(cnt.ObjectsShipped, first.Counters.ObjectsShipped)
	relax := sub(cnt.EdgeRelaxations, first.Counters.EdgeRelaxations)
	muts := float64(last.Epoch - first.Epoch)
	pct := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return 100 * part / whole
	}
	per := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return part / whole
	}
	validated := validations - invalid
	// Updates that found the session invalidated (by a data update it had
	// not yet repaired) skip validation entirely; add the eager repairs the
	// subscriber saw as data events and you have the invalidations that
	// mutations caused.
	lazyInvalidated := steps - validations
	dataEvents := float64(d.dataEvents[tracedWindows] - d.dataEvents[0])

	var walBytes, walMuts, fsyncs, fsyncUS float64
	if first.WAL != nil && last.WAL != nil {
		walBytes = float64(last.WAL.AppendedBytes - first.WAL.AppendedBytes)
		walMuts = float64(last.WAL.AppendedMutations - first.WAL.AppendedMutations)
		fsyncs = float64(last.WAL.Fsyncs - first.WAL.Fsyncs)
		fsyncUS = float64((last.WAL.FsyncTotal - first.WAL.FsyncTotal).Microseconds())
	}
	published := float64(last.Stream.Published - first.Stream.Published)
	coalesced := float64(last.Stream.Coalesced - first.Stream.Coalesced)
	snaps := 0.0
	for _, st := range d.engStat {
		snaps = max(snaps, float64(st.Snapshots))
	}
	shared := 0.0
	if last.IndexNodes > 0 {
		shared = 100 * (1 - float64(last.IndexNodesCopied)/float64(last.IndexNodes))
	} else if last.NetPages > 0 {
		shared = 100 * (1 - float64(last.NetPagesCopied)/float64(last.NetPages))
	}

	// The ledger: busy time per layer over the traced windows against the
	// process's CPU time over the same windows.
	rec.CPUUS = float64((d.cpu[tracedWindows] - d.cpu[0]).Microseconds())
	inWindows := spans[:0:0]
	for _, sp := range spans {
		if sp.Start >= d.bounds[0] && sp.End <= d.bounds[tracedWindows] {
			inWindows = append(inWindows, sp)
		}
	}
	rec.SelfNS = selfTimes(inWindows)
	// A pipelined Send mostly waits for a window slot, so the client's busy
	// time is the frames it sent times what a Send costs when it does not
	// wait (the wire probe's reading).
	frames := 0
	for _, sp := range inWindows {
		if sp.Name == "client.send" {
			frames++
		}
	}
	rec.Ledger = []ledgerRow{
		{Layer: "harness", Source: "span self time: harness.reader", BusyUS: float64(rec.SelfNS["harness.reader"]) / 1e3},
		{Layer: "client", Source: "frames sent x client.send_ns_per_frame", BusyUS: float64(frames) * wp.sendNSPerFrame / 1e3},
		{Layer: "server", Source: "stage decode", BusyUS: rec.Stages["decode"].SumUS},
		{Layer: "core", Source: "stage apply", BusyUS: rec.Stages["apply"].SumUS},
		{Layer: "engine", Source: "stage sweep", BusyUS: rec.Stages["sweep"].SumUS},
		{Layer: "index", Source: "stage publish", BusyUS: rec.Stages["publish"].SumUS},
		{Layer: "wal", Source: "stages wal_append + fsync", BusyUS: rec.Stages["wal_append"].SumUS + rec.Stages["fsync"].SumUS},
		{Layer: "stream", Source: "stage push", BusyUS: rec.Stages["push"].SumUS},
	}
	accounted := 0.0
	for i := range rec.Ledger {
		rec.Ledger[i].Pct = pct(rec.Ledger[i].BusyUS, rec.CPUUS)
		accounted += rec.Ledger[i].Pct
	}

	vals := map[string]float64{
		"caller.updates_per_s":     rec.Reference.UpdatesPerS.Median,
		"caller.update_p50_us":     rec.Reference.UpdateP50US.Median,
		"caller.update_p95_us":     rec.Reference.UpdateP95US.Median,
		"caller.cpu_us_per_update": rec.Reference.CPUPerUpUS.Median,
		"caller.mutation_p50_us":   rec.Reference.MutP50US.Median,
		"caller.push_p50_us":       rec.Reference.PushP50US.Median,
		"caller.recovery_s":        rec.Recovery.MedianS,

		"client.rtt_p50_us":        wp.rttP50US,
		"client.rtt_p99_us":        wp.rttP99US,
		"client.send_ns_per_frame": wp.sendNSPerFrame,

		"api.encode_batch_ns":  cp.encodeNS,
		"api.decode_batch_ns":  cp.decodeNS,
		"api.decode_ack_ns":    cp.decodeAckNS,
		"api.bytes_per_update": cp.bytesPerUpdate,

		"server.decode_us_p50":   wp.decodeP50US,
		"server.queue_us_p50":    max(wp.loadedP50US-wp.rttP50US, 0),
		"server.coalesce_factor": wp.coalesceFactor,
		"server.frames_per_s":    wp.framesPerS,
		"server.push_us_p50":     wp.pushP50US,
		"server.shed_total":      float64(refused),

		"engine.batch_us_p50":           ep.batchP50US,
		"engine.batch_us_p99":           ep.batchP99US,
		"engine.queue_us_p50":           rec.Stages["queue"].P50US,
		"engine.overhead_ns_per_update": ep.cpuNSPerUpdate - ep.applyNSPerUpdate,
		"engine.allocs_per_update":      ep.allocsPerUpdate,
		"engine.sweep_us_p50":           rec.Stages["sweep"].P50US,
		"engine.shed_total":             float64(last.Shed - first.Shed),
		"engine.expired_total":          float64(last.Expired - first.Expired),

		"core.validate_pct":             pct(validated, steps),
		"core.rerank_pct":               max(pct(steps-validated-recomputes, steps), 0),
		"core.recompute_pct":            pct(recomputes, steps),
		"core.update_ns_validate":       pp.validateNS,
		"core.update_ns_rerank":         pp.rerankNS,
		"core.update_ns_recompute":      pp.recomputeNS,
		"core.net_update_ns_validate":   np.validateNS,
		"core.net_update_ns_recompute":  np.recomputeNS,
		"core.ins_size_mean":            per(shipped, recomputes),
		"core.invalidated_per_mutation": per(lazyInvalidated+dataEvents, muts),

		"vortree.knn_ns":              pp.knnNS,
		"vortree.node_visits_per_knn": pp.visitsPerKNN,
		"vortree.ins_ns":              pp.insNS,
		"vortree.insert_us":           pp.insertUS,
		"vortree.remove_us":           pp.removeUS,

		"netvor.knn_ns":                 np.knnNS,
		"netvor.relaxations_per_update": per(relax, steps),
		"netvor.subnetwork_ns":          np.subnetworkNS,
		"netvor.insert_us":              np.insertUS,
		"netvor.proj_rebuilds":          float64(last.NetProjRebuilds - first.NetProjRebuilds),

		"index.apply_us_p50":      rec.Stages["publish"].P50US,
		"index.publish_us_mean":   last.EpochPublishUS,
		"index.shared_node_ratio": shared,
		"index.snapshots_live":    snaps,

		"wal.append_us_p50":      rec.Stages["wal_append"].P50US,
		"wal.bytes_per_mutation": per(walBytes, walMuts),
		"wal.fsyncs_per_s":       per(fsyncs, secs),
		"wal.fsync_mean_us":      per(fsyncUS, fsyncs),
		"wal.checkpoint_s":       rec.Recovery.CheckpointS,
		"wal.checkpoint_load_s":  rec.Recovery.CheckpointLoadS,

		"stream.publish_ns":    rec.Stages["push"].MeanUS * 1e3,
		"stream.events_per_s":  per(published, secs),
		"stream.coalesced_pct": pct(coalesced, published),
		"stream.dropped_total": float64(last.Stream.Dropped - first.Stream.Dropped),

		"ledger.accounted_pct":   accounted,
		"ledger.unaccounted_pct": 100 - accounted,
		"obs.trace_overhead_pct": pct(rec.Reference.UpdatesPerS.Median-rec.Traced.UpdatesPerS.Median, rec.Reference.UpdatesPerS.Median),
	}
	rec.PerLayer = make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		rec.PerLayer[m.Name] = value{v, m.Unit}
	}

	rec.TraceFile, err = writeTrace(c.outDir, traceFile{
		Stamp: rec.Stamp, Workload: c.sp.Name, Ledger: rec.Ledger, Stages: rec.Stages,
		PerLayer: rec.PerLayer, SelfNS: rec.SelfNS, Spans: spans,
	})
	if err != nil {
		return nil, err
	}

	a, b := &rec.Reference, &rec.Traced
	rec.Result = result{
		Attempted: a.Updates + a.Mutations + a.Pushes + b.Updates + b.Mutations + b.Pushes + rec.Checks.attempted(),
		Failed: a.UpdatesFailed + a.MutationsFailed + a.PushesLost + b.UpdatesFailed + b.MutationsFailed + b.PushesLost +
			rec.Checks.failed(),
		Metrics: rec.PerLayer,
	}
	rec.Result.Correct = a.PushesLost+b.PushesLost == 0 && rec.Checks.failed() == 0
	return rec, nil
}

func printTraced(rec *tracedRecord) {
	st := rec.Stamp
	fmt.Printf("workload %s (traced)  seed %d  %d windows x %.2fs  %s GOMAXPROCS=%d nproc=%d cpu %q commit %s\n",
		st.Workload, st.Seed, st.Windows, st.WindowS, st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.CPUModel, st.Commit)
	fmt.Printf("  updates/s untraced %.0f, traced %.0f\n", rec.Reference.UpdatesPerS.Median, rec.Traced.UpdatesPerS.Median)
	fmt.Printf("  ledger over %.0f us of process CPU:\n", rec.CPUUS)
	for _, r := range rec.Ledger {
		fmt.Printf("    %-8s %12.0f us  %5.1f%%  (%s)\n", r.Layer, r.BusyUS, r.Pct, r.Source)
	}
	stages := make([]string, 0, len(rec.Stages))
	for name := range rec.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	fmt.Println("  registry stages over the traced windows:")
	for _, name := range stages {
		s := rec.Stages[name]
		fmt.Printf("    %-10s n=%-9d mean %10.2f us  p50 %10.2f us  p99 %10.2f us\n", name, s.Count, s.MeanUS, s.P50US, s.P99US)
	}
	fmt.Println("  per-layer metrics:")
	for _, m := range perLayer {
		fmt.Printf("    %-32s %14.3f %s\n", m.Name, rec.PerLayer[m.Name].Value, m.Unit)
	}
	c := rec.Checks
	fmt.Printf("  checks: oracle %d sessions (%d wrong), recovery %d checks (%d failed), tail %d mutations (%d failed)\n",
		c.OracleSessions, c.OracleWrong, c.RecoveryChecks, c.RecoveryFailed, c.TailMutations, c.TailFailed)
	fmt.Printf("  trace file: %s\n", rec.TraceFile)
}
