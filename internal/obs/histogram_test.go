package obs

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// bucketIndex must be monotone and bucketValue must land inside the
	// bucket's range with bounded relative error.
	prev := -1
	for _, ns := range []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 1e6, 1e9, 1 << 40} {
		idx := bucketIndex(ns)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", ns, idx, prev)
		}
		prev = idx
		v := bucketValue(idx)
		if ns > 0 {
			rel := float64(v)/float64(ns) - 1
			if rel < -0.2 || rel > 0.2 {
				t.Errorf("bucketValue(%d)=%d for ns=%d: relative error %.2f", idx, v, ns, rel)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram not zero")
	}
	// 1..1000 microseconds uniformly: p50 ~ 500us, p99 ~ 990us.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo, hi := c.want*8/10, c.want*12/10
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	if h.Max() != time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	if m := h.Mean(); m < 400*time.Microsecond || m > 600*time.Microsecond {
		t.Errorf("mean = %v", m)
	}
	if h.Quantile(1) > h.Max() {
		t.Errorf("q100 %v exceeds max %v", h.Quantile(1), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Intn(1e6))
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Mean() != whole.Mean() || a.Max() != whole.Max() {
		t.Errorf("merge mismatch: %v vs %v", a.Summary(), whole.Summary())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%.2f: merged %v, whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramRecordNegative(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Count() != 1 || h.Max() != 0 {
		t.Errorf("negative record: count=%d max=%v", h.Count(), h.Max())
	}
}

func TestHistogramZeroValueQuantiles(t *testing.T) {
	// Observations of zero duration land in the exact-unit bucket 0 and
	// every quantile of an all-zero histogram must be zero, not the first
	// octave's midpoint.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("all-zero histogram q%.2f = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Max() != 0 {
		t.Errorf("all-zero histogram mean=%v max=%v", h.Mean(), h.Max())
	}
}

func TestHistogramSingleSampleMax(t *testing.T) {
	// With one sample every quantile is that sample, clamped to the true
	// max — the bucket midpoint must never overshoot it.
	var h Histogram
	h.Observe(123456 * time.Nanosecond)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		got := h.Quantile(q)
		if got > h.Max() {
			t.Errorf("q%.2f = %v exceeds max %v", q, got, h.Max())
		}
		if got < h.Max()*8/10 {
			t.Errorf("q%.2f = %v far below the single sample %v", q, got, h.Max())
		}
	}
}

func TestHistogramTopOctaveValues(t *testing.T) {
	// Values near the top of the uint64 nanosecond range must stay inside
	// the bucket table (no out-of-range index) and keep quantiles sane.
	var h Histogram
	huge := []uint64{1 << 62, 1<<63 - 1, 1 << 63, ^uint64(0) >> 1}
	for _, ns := range huge {
		if idx := bucketIndex(ns); idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0, %d)", ns, idx, histBuckets)
		}
		h.Observe(time.Duration(ns))
	}
	if h.Count() != uint64(len(huge)) {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q <= 0 || q > h.Max() {
		t.Errorf("top-octave q50 = %v (max %v)", q, h.Max())
	}
}

func TestBucketUpperNS(t *testing.T) {
	// Upper bounds must be strictly increasing over every reachable bucket
	// (the last reachable index is bucketIndex of the largest value; the
	// table's tail past it is padding) and every value must fall into a
	// bucket whose upper bound is >= the value (le semantics).
	top := bucketIndex(^uint64(0))
	if top >= histBuckets {
		t.Fatalf("top bucket %d outside the table (%d)", top, histBuckets)
	}
	var prev uint64
	for idx := 1; idx <= top; idx++ {
		up := BucketUpperNS(idx)
		if up <= prev {
			t.Fatalf("BucketUpperNS not strictly increasing at %d: %d then %d", idx, prev, up)
		}
		prev = up
	}
	if got := BucketUpperNS(top); got != ^uint64(0) {
		t.Errorf("top bucket upper bound = %d, want the full range", got)
	}
	for _, ns := range []uint64{0, 1, 7, 8, 9, 100, 12345, 1e6, 1e9, 1 << 40} {
		idx := bucketIndex(ns)
		if up := BucketUpperNS(idx); up < ns {
			t.Errorf("value %d maps to bucket %d with upper bound %d < value", ns, idx, up)
		}
		if idx > 0 {
			if lo := BucketUpperNS(idx - 1); lo >= ns {
				t.Errorf("value %d maps to bucket %d but previous upper bound %d >= value", ns, idx, lo)
			}
		}
	}
}

func TestLatencySummaryString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if s := h.Summary().String(); s == "" {
		t.Error("empty summary string")
	}
}

func TestHistogramMergeWhileObserving(t *testing.T) {
	// Under -race in CI: a Merge taken while writers run counts the sum of
	// its buckets, and one taken at quiesce equals the source.
	var h Histogram
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each + i))
			}
		}(w)
	}
	sum := func(m *Histogram) (n uint64) {
		for i := range m.counts {
			n += m.counts[i].Load()
		}
		return n
	}
	for i := 0; i < 20; i++ {
		var m Histogram
		if m.Merge(&h); m.Count() != sum(&m) {
			t.Fatalf("merge under writers: count %d, buckets sum to %d", m.Count(), sum(&m))
		}
	}
	wg.Wait()
	var m Histogram
	if m.Merge(&h); sum(&h) != writers*each || m.Summary() != h.Summary() || m.Max() != writers*each-1 {
		t.Errorf("at quiesce: source buckets sum to %d, merged %v, source %v", sum(&h), m.Summary(), h.Summary())
	}
}

func TestWriteInfNotBelowBuckets(t *testing.T) {
	// A scrape between Observe's bucket add and its count add sees a bucket
	// ahead of the count; +Inf and _count must not fall below any bucket.
	var h Histogram
	h.Observe(time.Microsecond)
	h.counts[bucketIndex(uint64(time.Millisecond))].Add(1)
	var b strings.Builder
	h.write(&b, "x", "")
	var inf, finite uint64
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		v, _ := strconv.ParseUint(val, 10, 64)
		switch {
		case name == `x_bucket{le="+Inf"}`:
			inf = v
		case strings.HasPrefix(name, "x_bucket"):
			finite = max(finite, v)
		}
	}
	if inf < finite || !strings.HasSuffix(b.String(), "x_count "+strconv.FormatUint(inf, 10)+"\n") {
		t.Errorf("+Inf %d below the largest finite bucket %d, or _count differs:\n%s", inf, finite, b.String())
	}
}
