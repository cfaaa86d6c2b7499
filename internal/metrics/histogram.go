package metrics

import (
	"math"
	"sync/atomic"
)

// Histogram is a bounded-memory latency/size aggregator: a fixed set of
// log-scale buckets plus exact min/max/sum tracking. Unlike Digest it never
// grows — memory is O(buckets) regardless of how many samples a long-lived
// server feeds it — and Add is O(1) with no locks (atomic adds only), so it is
// safe to call from every request goroutine of a serving plane. Quantiles are
// estimated by linear interpolation inside the target bucket; the estimate is
// off from the exact order statistic by at most one bucket width (the
// property test pins this against Digest on the same samples).
//
// Bucket i (1 ≤ i < n-1) spans (lo·growth^(i-1), lo·growth^i]; bucket 0 is
// [0, lo] and the last bucket is the overflow (everything past the hi bound).
type Histogram struct {
	lo      float64
	growth  float64
	invLogG float64 // 1/ln(growth), so Add computes the index in O(1)
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-add
	minBits atomic.Uint64 // float64 bits; starts at +Inf
	maxBits atomic.Uint64 // float64 bits; starts at -Inf
}

// NewHistogram builds a histogram covering [0, hi] with log-scale buckets:
// the first finite bucket ends at lo and each subsequent bucket is growth
// times wider. Values past hi land in a final overflow bucket (counted, and
// bounded above by the observed max). Panics on nonsense bounds.
func NewHistogram(lo, hi, growth float64) *Histogram {
	if lo <= 0 || hi <= lo || growth <= 1 {
		panic("metrics: histogram needs 0 < lo < hi and growth > 1")
	}
	n := int(math.Ceil(math.Log(hi/lo)/math.Log(growth))) + 2 // [0,lo] + finite + overflow
	h := &Histogram{lo: lo, growth: growth, invLogG: 1 / math.Log(growth)}
	h.counts = make([]atomic.Uint64, n)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// NewLatencyHistogram covers 10µs–60s in seconds with ~25%-wide buckets —
// the serving planes' per-stage latency configuration.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(10e-6, 60, 1.25)
}

// bucketIndex maps a sample to its bucket.
func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.lo {
		return 0
	}
	i := 1 + int(math.Floor(math.Log(v/h.lo)*h.invLogG))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// upperBound returns bucket i's inclusive upper edge (overflow: +Inf).
func (h *Histogram) upperBound(i int) float64 {
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.lo * math.Pow(h.growth, float64(i))
}

// BucketWidth returns the width of the bucket that holds v — the histogram's
// quantile error bound at that magnitude. Overflow-bucket widths are reported
// as the last finite bucket's width.
func (h *Histogram) BucketWidth(v float64) float64 {
	i := h.bucketIndex(v)
	if i >= len(h.counts)-1 {
		i = len(h.counts) - 2
	}
	if i == 0 {
		return h.lo
	}
	return h.upperBound(i) - h.upperBound(i-1)
}

// Add records one sample. Negative samples clamp to 0. Safe for concurrent
// use; O(1), allocation-free.
func (h *Histogram) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
	minFloatBits(&h.minBits, v)
	maxFloatBits(&h.maxBits, v)
}

// addFloatBits CAS-adds v into a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func minFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func maxFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return int64(h.count.Load()) }

// Sum returns the sample total.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min and Max return the exact observed extremes (0 with no samples; a
// concurrent snapshot racing the very first Add can also read 0 briefly).
func (h *Histogram) Min() float64 {
	v := math.Float64frombits(h.minBits.Load())
	if h.count.Load() == 0 || math.IsInf(v, 1) {
		return 0
	}
	return v
}

func (h *Histogram) Max() float64 {
	v := math.Float64frombits(h.maxBits.Load())
	if h.count.Load() == 0 || math.IsInf(v, -1) {
		return 0
	}
	return v
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1): find the bucket holding the
// target rank, interpolate linearly inside it, clamp to the observed
// [Min, Max]. Exact at the extremes; within one bucket width elsewhere.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	// 1-based target rank, mirroring Digest's interpolated position.
	target := q*float64(total-1) + 1
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lower := 0.0
			if i > 0 {
				lower = h.upperBound(i - 1)
			}
			upper := h.upperBound(i)
			if math.IsInf(upper, 1) {
				upper = h.Max()
			}
			frac := (target - cum) / n
			v := lower + frac*(upper-lower)
			return clamp(v, h.Min(), h.Max())
		}
		cum += n
	}
	return h.Max()
}

// P50 returns the estimated median.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
