package obs

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// histSubBits is the number of mantissa bits per octave: each power-of-two
// range of nanoseconds is split into 2^histSubBits sub-buckets, bounding the
// relative quantile error at 1/2^histSubBits (~12.5%).
const histSubBits = 3

// histBuckets covers the full uint64 nanosecond range at histSubBits
// resolution; 64 octaves x 8 sub-buckets is a comfortable upper bound.
const histBuckets = 64 << histSubBits

// Histogram is a lock-free log-scale latency histogram with bounded
// relative error. Every bucket is an atomic: Observe is three atomic adds
// plus a max that is raised by CAS only when exceeded, and is safe from any
// goroutine (uncontended when one goroutine writes, as each engine shard
// does with its own). Merge reads by atomic loads, quantiles are read by
// walking the buckets, and the zero value is ready to use. A nil
// *Histogram no-ops on Observe and reads zero from Count.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Uint64
	maxNS  atomic.Uint64
}

// bucketIndex maps a nanosecond value to its bucket. Values below
// 2^histSubBits get exact unit buckets; larger values share an octave
// bucket with at most 2^-histSubBits relative width.
func bucketIndex(ns uint64) int {
	if ns < 1<<histSubBits {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits
	return exp<<histSubBits + int(ns>>exp)
}

// bucketValue returns the representative (midpoint) nanosecond value of
// bucket idx, the inverse of bucketIndex up to the bucket width.
func bucketValue(idx int) uint64 {
	if idx < 1<<histSubBits {
		return uint64(idx)
	}
	exp := idx>>histSubBits - 1
	lo := uint64(1<<histSubBits+idx&(1<<histSubBits-1)) << exp
	return lo + 1<<exp/2
}

// BucketUpperNS returns the inclusive upper bound (in nanoseconds) of
// bucket idx — the Prometheus `le` edge of the bucket. Upper bounds are
// strictly increasing in idx, which is what makes a cumulative bucket walk
// over the layout monotone.
func BucketUpperNS(idx int) uint64 {
	if idx < 1<<histSubBits {
		return uint64(idx)
	}
	exp := idx>>histSubBits - 1
	lo := uint64(1<<histSubBits+idx&(1<<histSubBits-1)) << exp
	return lo + 1<<exp - 1
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.raiseMax(ns)
}

// raiseMax lifts the recorded maximum to ns; the CAS runs only when ns
// exceeds it.
func (h *Histogram) raiseMax(ns uint64) {
	for m := h.maxNS.Load(); ns > m; m = h.maxNS.Load() {
		if h.maxNS.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Merge adds other's observations into h. It reads other by atomic loads,
// so it may run while other's writers do; h's count grows by the sum of the
// buckets it loaded, so h's count always equals the sum of its buckets.
func (h *Histogram) Merge(other *Histogram) {
	var n uint64
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	h.count.Add(n)
	h.sumNS.Add(other.sumNS.Load())
	h.raiseMax(other.maxNS.Load())
}

// Count returns the number of observations, zero on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the average recorded duration, zero when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Quantile returns the q-quantile (q in [0, 1]) of the recorded durations,
// accurate to the bucket width (~12.5% relative). Zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	maxNS := h.maxNS.Load()
	rank := uint64(q*float64(n-1)) + 1 // 1-based rank of the target observation
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			// The top bucket's midpoint can overshoot the true maximum.
			return time.Duration(min(bucketValue(i), maxNS))
		}
	}
	return time.Duration(maxNS)
}

// Summary condenses the histogram into the fields reports use.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count: h.count.Load(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// LatencySummary is a Histogram condensed to the usual reporting quantiles.
// Its JSON form is the latency object of /v1/stats, durations in
// nanoseconds.
type LatencySummary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// String implements fmt.Stringer as one report row.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// write renders the series in exposition format: cumulative non-empty
// buckets with `le` edges in seconds, a mandatory +Inf bucket, then _sum
// and _count. Buckets the workload never touched are elided — with 512
// layout buckets per stage that is the difference between a ~2KB and a
// ~40KB scrape. The +Inf bucket and _count are the cumulative sum of the
// buckets written, not the count field: Observe bumps a bucket before the
// count, so a scrape between the two would otherwise end below a finite
// bucket.
func (h *Histogram) write(b *strings.Builder, name, suffix string) {
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		b.WriteString(name)
		b.WriteString("_bucket")
		le := float64(BucketUpperNS(i)) / 1e9
		b.WriteString(labelSuffixWith(suffix, "le", strconv.FormatFloat(le, 'g', -1, 64)))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(labelSuffixWith(suffix, "le", "+Inf"))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(suffix)
	b.WriteByte(' ')
	b.WriteString(formatFloat(float64(h.sumNS.Load()) / 1e9))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(suffix)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}
