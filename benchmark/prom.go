package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The per-stage timings the program already keeps
// (insq_stage_duration_seconds{stage=...}) are read the way an operator
// would: from the registry's Prometheus exposition. The harness scrapes
// it at window boundaries and works with the difference of two scrapes.

const stageFamily = "insq_stage_duration_seconds"

// stageHist is one stage's histogram at one scrape: per-bucket counts
// keyed by the bucket's upper edge in seconds, plus sum and count.
type stageHist struct {
	buckets map[float64]uint64
	sumS    float64
	count   uint64
}

// stageAg is a stage condensed over an interval, as reported.
type stageAg struct {
	Count  uint64  `json:"count"`
	SumUS  float64 `json:"sum_us"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

// scrape is one reading of the registry: the stage histograms, and every
// unlabelled counter or gauge by name.
type scrape struct {
	stages  map[string]*stageHist
	scalars map[string]float64
}

// scrapeRegistry renders the registry and parses what the harness uses
// out of it. A nil registry (observability off) reads as empty.
func scrapeRegistry(reg *obs.Registry) (*scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseExposition(&buf), nil
}

func parseExposition(buf *bytes.Buffer) *scrape {
	out := make(map[string]*stageHist)
	scalars := make(map[string]float64)
	get := func(stage string) *stageHist {
		h := out[stage]
		if h == nil {
			h = &stageHist{buckets: make(map[float64]uint64)}
			out[stage] = h
		}
		return h
	}
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, stageFamily+"_") {
			if name, val, ok := strings.Cut(line, " "); ok && !strings.Contains(name, "{") {
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					scalars[name] = v
				}
			}
			continue
		}
		open, shut := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if open < 0 || shut < open {
			continue
		}
		kind := line[len(stageFamily)+1 : open]
		labels := parseLabels(line[open+1 : shut])
		val := strings.TrimSpace(line[shut+1:])
		h := get(labels["stage"])
		switch kind {
		case "bucket":
			le, err := strconv.ParseFloat(labels["le"], 64) // "+Inf" parses too
			n, err2 := strconv.ParseUint(val, 10, 64)
			if err == nil && err2 == nil {
				h.buckets[le] = n // cumulative for now
			}
		case "sum":
			h.sumS, _ = strconv.ParseFloat(val, 64)
		case "count":
			h.count, _ = strconv.ParseUint(val, 10, 64)
		}
	}
	// Cumulative to per-bucket.
	for _, h := range out {
		edges := sortedEdges(h.buckets)
		var prev uint64
		for _, le := range edges {
			cum := h.buckets[le]
			h.buckets[le] = cum - prev
			prev = cum
		}
	}
	return &scrape{stages: out, scalars: scalars}
}

// parseLabels splits k="v",k2="v2" (the stage family's values never
// contain commas, quotes or escapes).
func parseLabels(s string) map[string]string {
	m := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		if eq := strings.IndexByte(part, '='); eq > 0 {
			m[part[:eq]] = strings.Trim(part[eq+1:], `"`)
		}
	}
	return m
}

func sortedEdges(b map[float64]uint64) []float64 {
	edges := make([]float64, 0, len(b))
	for le := range b {
		edges = append(edges, le)
	}
	sort.Float64s(edges)
	return edges
}

// stageDelta condenses what each stage recorded between two scrapes.
func stageDelta(from, to *scrape) map[string]stageAg {
	before := from.stages
	out := make(map[string]stageAg)
	for stage, a := range to.stages {
		d := stageHist{buckets: make(map[float64]uint64), sumS: a.sumS, count: a.count}
		for le, n := range a.buckets {
			d.buckets[le] = n
		}
		if b := before[stage]; b != nil {
			d.sumS -= b.sumS
			d.count -= b.count
			for le, n := range b.buckets {
				d.buckets[le] -= n
			}
		}
		ag := stageAg{Count: d.count, SumUS: d.sumS * 1e6}
		if d.count > 0 {
			ag.MeanUS = ag.SumUS / float64(d.count)
			ag.P50US = d.quantile(0.50) * 1e6
			ag.P99US = d.quantile(allowedPercentile(int(d.count), 99)/100) * 1e6
		}
		out[stage] = ag
	}
	return out
}

// quantile returns the upper edge (seconds) of the bucket holding the
// q-quantile: accurate to the registry's bucket width (~12.5%).
func (h *stageHist) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	edges := sortedEdges(h.buckets)
	last := 0.0
	for _, le := range edges {
		if math.IsInf(le, 1) {
			break
		}
		seen += h.buckets[le]
		last = le
		if seen >= rank {
			return le
		}
	}
	return last
}
