// Package obs is the serving stack's observability layer: a dependency-
// free, allocation-free metrics registry (atomic counters, gauges and
// lock-free log-scale histograms, the one latency histogram type, which
// the engine also keeps per shard) with a Prometheus text-format
// exporter, per-stage pipeline timing, and a structured slow-op log over
// log/slog with per-request trace IDs.
//
// Everything is built around one invariant: observability off must cost
// nothing. All instrumentation handles are nil-safe — a nil *Pipeline,
// *Counter, *Gauge, *Histogram or *SlowLog turns every method into a
// single nil-check branch, no clock reads, no atomics, no allocation.
// Subsystems take a *Pipeline in their config; passing nil compiles the
// whole layer to a no-op. The repository benchmark (benchmark/) reports
// what instrumentation costs as obs.trace_overhead_pct.
//
// Stage taxonomy. One location update (or data mutation) flows through
// the write pipeline as: HTTP decode -> shard mailbox (queue wait) ->
// batch apply -> WAL append (+ fsync under the always policy) -> epoch
// publish -> session sweep -> stream push. Each stage has a histogram in
// the single family insq_stage_duration_seconds{stage="..."}, so a p95
// regression can be attributed to one layer without re-benchmarking each
// in isolation.
package obs

import (
	"time"
)

// Stage identifies one write-pipeline stage.
type Stage uint8

// The pipeline stages, in flow order.
const (
	// StageDecode is the HTTP request body decode (cmd/insqd).
	StageDecode Stage = iota
	// StageQueue is a batch's wait in the shard mailbox, from engine
	// fan-out to worker dequeue.
	StageQueue
	// StageApply is one session's kNN update against its shard's snapshot.
	StageApply
	// StageWALAppend is the whole durability append of one batch: encode,
	// buffer, and — under the always policy — the group-commit fsync wait.
	StageWALAppend
	// StageFsync is one raw WAL segment flush+fsync.
	StageFsync
	// StagePublish is one epoch publication inside index.Store.Apply
	// (copy-on-write branch + mutations + snapshot swap), net of the
	// durability append measured separately as StageWALAppend.
	StagePublish
	// StageSweep is one shard sweep: moving every session to the newest
	// snapshot after an epoch notification, including eager recomputes of watched sessions.
	StageSweep
	// StagePush is one stream broker fan-out of a published event.
	StagePush

	numStages
)

// String returns the stage's label value in the exported metric family.
func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageQueue:
		return "queue"
	case StageApply:
		return "apply"
	case StageWALAppend:
		return "wal_append"
	case StageFsync:
		return "fsync"
	case StagePublish:
		return "publish"
	case StageSweep:
		return "sweep"
	case StagePush:
		return "push"
	}
	return "unknown"
}

// Pipeline bundles what the instrumented subsystems need: the per-stage
// histograms, the slow-op log, and the registry for subsystem gauges.
// A nil *Pipeline is the compiled-to-noop mode; every method nil-checks.
type Pipeline struct {
	reg    *Registry
	slow   *SlowLog
	stages [numStages]*Histogram
}

// NewPipeline registers the per-stage histogram family on reg and binds
// the slow-op log (which may be nil). reg may be nil, in which case only
// the slow-op log is live.
func NewPipeline(reg *Registry, slow *SlowLog) *Pipeline {
	p := &Pipeline{reg: reg, slow: slow}
	for st := Stage(0); st < numStages; st++ {
		p.stages[st] = reg.Histogram("insq_stage_duration_seconds",
			"Wall time inside each write-pipeline stage.",
			Label{Name: "stage", Value: st.String()})
	}
	slow.bindCounters(reg)
	return p
}

// Enabled reports whether the pipeline is live. Subsystems use it to gate
// the clock reads around instrumented sections, keeping the nil pipeline
// free of even time.Now calls.
func (p *Pipeline) Enabled() bool { return p != nil }

// Registry returns the pipeline's registry (nil on a nil pipeline), where
// subsystems register their gauges.
func (p *Pipeline) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Observe records one stage duration. No-op on a nil pipeline.
func (p *Pipeline) Observe(st Stage, d time.Duration) {
	if p == nil {
		return
	}
	p.stages[st].Observe(d)
}

// SlowBatch logs a shard batch that exceeded the batch threshold.
func (p *Pipeline) SlowBatch(trace string, shard, entries int, d time.Duration) {
	if p == nil {
		return
	}
	p.slow.Batch(trace, shard, entries, d)
}

// SlowFsync logs a WAL fsync (or always-policy group-commit wait) that
// exceeded the fsync threshold. trace is empty for background fsyncs.
func (p *Pipeline) SlowFsync(trace string, d time.Duration) {
	if p == nil {
		return
	}
	p.slow.Fsync(trace, d)
}

// SlowPublish logs an epoch publication that exceeded the publish
// threshold.
func (p *Pipeline) SlowPublish(trace string, epoch uint64, muts int, d time.Duration) {
	if p == nil {
		return
	}
	p.slow.Publish(trace, epoch, muts, d)
}

// StreamOverflow logs a subscriber queue overflow (a pending event was
// evicted). session is the evicted event's session id.
func (p *Pipeline) StreamOverflow(session uint64, depth int) {
	if p == nil {
		return
	}
	p.slow.StreamOverflow(session, depth)
}

// Shed logs a batch rejected by admission control (a target shard
// mailbox at its high watermark).
func (p *Pipeline) Shed(trace string, shard, entries, depth int) {
	if p == nil {
		return
	}
	p.slow.Shed(trace, shard, entries, depth)
}

// Expired logs a deadline-expired batch a shard dropped without
// executing it.
func (p *Pipeline) Expired(trace string, shard, entries int, waited time.Duration) {
	if p == nil {
		return
	}
	p.slow.Expired(trace, shard, entries, waited)
}
