package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// even counts), 0 when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of an
// ascending slice, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// percentileLadder is the set of percentiles the harness ever reports.
var percentileLadder = []float64{50, 75, 90, 95, 99}

// allowedPercentile applies the reporting rule of the metrics guide: a
// percentile is quoted only when at least ten samples lie beyond it. It
// returns the highest ladder percentile <= want that n samples support
// (p50 at worst, which needs no tail).
func allowedPercentile(n int, want float64) float64 {
	best := 50.0
	for _, p := range percentileLadder {
		if p > want {
			break
		}
		if float64(n)*(100-p) >= 1000 { // n*(1-p/100) >= 10, without the rounding
			best = p
		}
	}
	return best
}

// series is one end-to-end metric's per-window values condensed the way
// every record reports them: the median over windows is the metric, the
// extremes and sample count ride along so a reader can judge the spread.
type series struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Windows []float64 `json:"windows"`
	// Samples is the number of raw observations behind each window value
	// (operations for a rate, latencies for a percentile).
	Samples []int `json:"samples"`
}

func newSeries(windows []float64, samples []int) series {
	s := series{Windows: windows, Samples: samples, Median: median(windows)}
	for i, v := range windows {
		if i == 0 || v < s.Min {
			s.Min = v
		}
		if i == 0 || v > s.Max {
			s.Max = v
		}
	}
	return s
}

// quartileSpread is the driver's noise measure: the distance between the
// first and third quartile (exclusive method, matching Python's
// statistics.quantiles(values, n=4)) as a share of the median.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
