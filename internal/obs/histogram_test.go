package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("empty histogram: count=%d sum=%v", h.Count(), h.Sum())
	}
	if q := h.quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramQuantilesApproximateSorted(t *testing.T) {
	// Geometric-bucket quantiles must land within one bucket (≈9%) of
	// the exact sample quantile.
	h := newHistogram()
	var vals []float64
	v := 0.0001
	for i := 0; i < 1000; i++ {
		vals = append(vals, v)
		h.Observe(v)
		v *= 1.01
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := vals[int(math.Ceil(p*float64(len(vals))))-1]
		got := h.quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.10 {
			t.Errorf("p%v: got %v want ≈%v (rel err %.3f)", p, got, exact, rel)
		}
	}
}

func TestHistogramQuantileClampedToObservedRange(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.042) // all identical
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := h.quantile(p); q != 0.042 {
			t.Errorf("p%v = %v, want exactly 0.042 (min/max clamp)", p, q)
		}
	}
}

func TestHistogramOrderingInvariant(t *testing.T) {
	h := newHistogram()
	for _, v := range []float64{0.001, 0.5, 0.003, 2.7, 0.0004, 11, 0.09} {
		h.Observe(v)
	}
	last := -1.0
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		q := h.quantile(p)
		if q < last {
			t.Errorf("quantiles not monotone: p%v=%v < %v", p, q, last)
		}
		last = q
	}
}

func TestHistogramClampsNegativeAndNaN(t *testing.T) {
	h := newHistogram()
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if h.Sum() != 0 {
		t.Errorf("sum = %v, want 0", h.Sum())
	}
}

func TestHistogramSumCount(t *testing.T) {
	h := newHistogram()
	want := 0.0
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i))
		want += float64(i)
	}
	if h.Count() != 50 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestBucketForBoundaries(t *testing.T) {
	// Zero goes to bucket 0; the largest bound to its own bucket;
	// beyond-the-last to the overflow bucket.
	if b := bucketFor(0); b != 0 {
		t.Errorf("bucketFor(0) = %d", b)
	}
	last := histBounds[len(histBounds)-1]
	if b := bucketFor(last); b != len(histBounds)-1 {
		t.Errorf("bucketFor(last bound) = %d, want %d", b, len(histBounds)-1)
	}
	if b := bucketFor(last * 10); b != len(histBounds) {
		t.Errorf("bucketFor(overflow) = %d, want %d", b, len(histBounds))
	}
}
