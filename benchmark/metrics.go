package main

import (
	"runtime"
	"sort"

	"repro/internal/engine"
)

// metricDef declares one benchmark metric; BENCHMARK.json carries the same
// table (a unit test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics: a later change is rejected when one of
// them gets worse by more than Bound, a share of the parent's median. Only
// numbers this class of machine can reproduce are gated. Every wall-clock
// or CPU-time reading of these workloads follows the host's memory latency,
// which drifts by +-20% over minutes (README.md, "Noise"): the quartile
// spread of ten runs was 8-39% across the timings, which no bound the
// contract allows can police and run length cannot average out. So the
// timings the issue listed as end-to-end are measured and printed with
// every record exactly as specified, but are reported in the per-layer
// list (caller.*), for paired alternating comparisons; what is gated is
// what INS is about and what repeats — how often a moving client must go
// back to the server, how much it is sent, how much search work that
// takes, and what the process holds in memory — plus the set-up time the
// contract requires.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"recompute_rate_pct", "%", "lower", 0.05},
	{"objects_shipped_per_update", "count", "lower", 0.05},
	{"search_steps_per_update", "count", "lower", 0.05},
}

// value is one reported number in the contract's output shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// heapLiveMB is the live heap after two forced collections (the second
// one sweeps what the first one's finalizers released).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// failedLatency is what a failed call contributes to a latency
// percentile: it missed every limit, so it is priced at the request
// timeout.
const failedLatency = int64(requestTimeout)

// windowed condenses a phase's raw records into per-window series, one
// per windowed metric, as this machine delivered them.
type windowed struct {
	// Ratios of the engine's own counters over each window.
	RecomputePct series `json:"recompute_rate_pct"`
	ShippedPerUp series `json:"objects_shipped_per_update"`
	SearchPerUp  series `json:"search_steps_per_update"`

	// The caller's timings.
	UpdatesPerS series `json:"updates_per_s"`
	UpdateP50US series `json:"update_p50_us"`
	UpdateP95US series `json:"update_p95_us"`
	CPUPerUpUS  series `json:"cpu_us_per_update"`
	MutP50US    series `json:"mutation_p50_us"`
	PushP50US   series `json:"push_p50_us"`
	// P95Rule is the percentile actually reported as update_p95_us: 95
	// unless a window had too few calls to leave ten samples beyond it.
	P95Rule float64 `json:"update_p95_percentile_used"`

	LatenessP50US float64 `json:"mutator_lateness_p50_us"`
	LatenessMaxUS float64 `json:"mutator_lateness_max_us"`

	// Operation counts over the windows, for the contract's failure ratio.
	Updates, UpdatesFailed     int64
	Mutations, MutationsFailed int64
	Pushes, PushesLost         int64
}

// windowIndex returns the window holding time t, or -1 outside them all.
func windowIndex(bounds []int64, t int64) int {
	if len(bounds) < 2 || t < bounds[0] || t >= bounds[len(bounds)-1] {
		return -1
	}
	return sort.Search(len(bounds), func(i int) bool { return bounds[i] > t }) - 1
}

// pAt sorts nanosecond samples in place and returns their p-th percentile
// in microseconds.
func pAt(ns []float64, p float64) float64 {
	sort.Float64s(ns)
	return percentile(ns, p) / 1e3
}

// condense bins a phase's records by window.
func condense(d *phaseData) windowed {
	nw := len(d.bounds) - 1
	var w windowed
	type bin struct {
		lat    []float64
		ok, n  int64
		mut    []float64
		push   []float64
		mutBad int64
	}
	bins := make([]bin, nw)
	for _, o := range d.ops {
		i := windowIndex(d.bounds, o.end)
		if i < 0 {
			continue
		}
		b := &bins[i]
		lat := o.lat
		if o.ok < o.n {
			lat = failedLatency
		}
		b.lat = append(b.lat, float64(lat))
		b.ok += int64(o.ok)
		b.n += int64(o.n)
	}
	var late []float64
	for _, m := range d.muts {
		i := windowIndex(d.bounds, m.due)
		if i < 0 {
			continue
		}
		b := &bins[i]
		lat := m.lat
		if !m.ok {
			lat = failedLatency
			b.mutBad++
		}
		b.mut = append(b.mut, float64(lat))
		late = append(late, float64(m.late))
	}
	for _, p := range d.pushes {
		if i := windowIndex(d.bounds, p.due); i >= 0 {
			bins[i].push = append(bins[i].push, float64(p.lat))
		}
	}
	w.PushesLost = int64(d.lost)

	// One percentile for every window: the highest the smallest window
	// supports.
	w.P95Rule = 95
	for _, b := range bins {
		w.P95Rule = min(w.P95Rule, allowedPercentile(len(b.lat), 95))
	}
	out := []*series{&w.UpdatesPerS, &w.UpdateP50US, &w.UpdateP95US, &w.CPUPerUpUS, &w.MutP50US, &w.PushP50US}
	vals := make([][]float64, len(out))
	counts := make([][]int, len(out))
	for i, b := range bins {
		secs := float64(d.bounds[i+1]-d.bounds[i]) / 1e9
		cpuUS := float64(d.cpu[i+1]-d.cpu[i]) / 1e3
		row := []float64{
			float64(b.ok) / secs,
			pAt(b.lat, 50),
			pAt(b.lat, w.P95Rule),
			cpuUS / float64(max(b.ok, 1)),
			pAt(b.mut, 50),
			pAt(b.push, 50),
		}
		ns := []int{int(b.ok), len(b.lat), len(b.lat), int(b.ok), len(b.mut), len(b.push)}
		for m := range row {
			vals[m] = append(vals[m], row[m])
			counts[m] = append(counts[m], ns[m])
		}
		w.Updates += b.n
		w.UpdatesFailed += b.n - b.ok
		w.Mutations += int64(len(b.mut))
		w.MutationsFailed += b.mutBad
		w.Pushes += int64(len(b.push))
	}
	w.Pushes += w.PushesLost
	for m, s := range out {
		*s = newSeries(vals[m], counts[m])
	}
	w.counterSeries(d.engStat)
	w.LatenessP50US = pAt(late, 50)
	if len(late) > 0 {
		w.LatenessMaxUS = late[len(late)-1] / 1e3 // pAt sorted it
	}
	return w
}

// counterSeries fills the count-ratio series from the engine statistics
// read at each window boundary. Every value is a ratio of two counters
// read at the same instants, so it does not depend on how fast the window
// ran.
func (w *windowed) counterSeries(at []engine.Stats) {
	var recompute, shipped, search []float64
	var updates []int
	for i := 0; i+1 < len(at); i++ {
		a, b := at[i].Counters, at[i+1].Counters
		steps := b.Timestamps - a.Timestamps
		updates = append(updates, steps)
		recompute = append(recompute, 100*ratio(b.Recomputations-a.Recomputations, steps))
		shipped = append(shipped, ratio(b.ObjectsShipped-a.ObjectsShipped, steps))
		search = append(search, ratio((b.DistanceCalcs-a.DistanceCalcs)+(b.NodeVisits-a.NodeVisits)+
			(b.EdgeRelaxations-a.EdgeRelaxations), steps))
	}
	w.RecomputePct = newSeries(recompute, updates)
	w.ShippedPerUp = newSeries(shipped, updates)
	w.SearchPerUp = newSeries(search, updates)
}

// ratio is part/whole, 0 when there is no whole.
func ratio(part, whole int) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
