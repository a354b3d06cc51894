package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// The harness traces from the outside: a span is recorded around each
// call it makes into a layer's public surface (engine, client, stream),
// never inside the program under test. Spans stay in memory during the
// run and are written out once at exit.

// span is one timed interval. Times are nanoseconds on the run clock.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // the span that caused this one
	Trace  uint64 `json:"trace"`            // shared by all spans of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out span ids and per-goroutine buffers. A nil *tracer is
// tracing off: every method no-ops, so untraced runs pay one nil check.
type tracer struct {
	next atomic.Uint64
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's append-only span log; only its owner writes
// it, so recording a span takes no lock.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// id reserves a span id (0 when tracing is off) so a parent can be named
// by its children before it is complete.
func (b *spanBuf) id() uint64 {
	if b == nil {
		return 0
	}
	return b.tr.next.Add(1)
}

// add records a finished span under a reserved id.
func (b *spanBuf) add(id, parent, trace uint64, name string, start, end int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
}

// all returns every recorded span, ordered by start time. Call only after
// the recording goroutines have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its child spans
// (children are clipped to the parent and overlapping children are counted
// once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [start, end) covered by the union of kids.
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	reach = start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			total += v[1] - lo
			reach = v[1]
		}
	}
	return total
}

// maxTraceSpans caps the spans written to the trace file; the per-layer
// numbers are computed from all of them before the cut.
const maxTraceSpans = 50000

// traceFile is the on-disk trace: the run's stamp, the ledger computed
// from it, and the (possibly truncated) span list.
type traceFile struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Ledger    []ledgerRow        `json:"ledger"`
	Stages    map[string]stageAg `json:"stages"`
	PerLayer  map[string]value   `json:"per_layer"`
	SelfNS    map[string]int64   `json:"span_self_ns"`
	Spans     []span             `json:"spans"`
	Truncated int                `json:"spans_truncated"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if len(tf.Spans) > maxTraceSpans {
		tf.Truncated = len(tf.Spans) - maxTraceSpans
		tf.Spans = tf.Spans[:maxTraceSpans]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
