package obs

import (
	"math"
	"sync/atomic"
)

// Histogram accumulates non-negative observations (typically latencies
// in seconds) into exponentially sized buckets and answers quantile
// queries from the bucket counts. It is safe for concurrent use from
// any goroutine: observation is a handful of atomic operations, no
// locks, so it can sit on the probe hot path.
//
// This is deliberately a different animal from stats.Histogram: that
// one models the paper's error distributions (explicit edges, per-bin
// means, merging), while this one is an operational latency recorder —
// fixed geometric buckets spanning nanoseconds to hours, lock-free
// writes, and approximate quantiles with bounded relative error.
type Histogram struct {
	buckets []atomic.Int64 // one per histBounds entry, plus overflow
	count   atomic.Int64
	sum     atomicFloat
	min     atomicFloat
	max     atomicFloat
}

// Bucket layout: bucket i covers (histBounds[i-1], histBounds[i]],
// bucket 0 covers [0, histBounds[0]]. Bounds grow by 2^(1/8) ≈ 9% per
// bucket from 1e-9 to ~1e6, so any quantile is located with under ±5%
// relative error — plenty for p50/p90/p99 dashboards, and cheap: the
// whole histogram is a few KiB.
const histGrowth = 1.0905077326652577 // 2^(1/8)

var histBounds = func() []float64 {
	var b []float64
	for v := 1e-9; v < 1e6; v *= histGrowth {
		b = append(b, v)
	}
	return b
}()

// NewHistogram returns an empty histogram. Registry.Histogram is the
// usual constructor; this one serves tests and standalone use.
func NewHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Int64, len(histBounds)+1)}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// bucketFor locates the bucket of v by binary search over the bounds.
func bucketFor(v float64) int {
	lo, hi := 0, len(histBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if histBounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // == len(histBounds) for overflow
}

// Observe records one observation. Negative and NaN values are clamped
// to zero (latencies cannot be negative; recording them keeps counts
// consistent with callers that observe once per event).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile returns an approximation of the p-quantile (p in [0, 1]) of
// the observations so far, interpolated within the located bucket and
// clamped to the observed [min, max]. It returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Rank of the wanted observation, 1-based.
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	idx := len(h.buckets) - 1
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			idx = i
			break
		}
	}
	var lo, hi float64
	switch {
	case idx == 0:
		lo, hi = 0, histBounds[0]
	case idx == len(histBounds):
		lo = histBounds[len(histBounds)-1]
		hi = lo * histGrowth
	default:
		lo, hi = histBounds[idx-1], histBounds[idx]
	}
	// Linear interpolation by rank within the bucket.
	inBucket := h.buckets[idx].Load()
	prev := cum - inBucket
	frac := 1.0
	if inBucket > 0 {
		frac = float64(rank-prev) / float64(inBucket)
	}
	v := lo + (hi-lo)*frac
	// Any sample quantile lies within the observed range; clamping
	// removes the bucket-edge error at the extremes.
	if mn := h.min.load(); v < mn {
		v = mn
	}
	if mx := h.max.load(); v > mx {
		v = mx
	}
	return v
}

// atomicFloat is a float64 with atomic load/add/min/max via CAS on the
// bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
