package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// mustHistogram is NewHistogram that fails the process on invalid edges.
func mustHistogram(edges []float64) *Histogram {
	h, err := NewHistogram(edges)
	if err != nil {
		panic(err)
	}
	return h
}

func TestHistogramBasics(t *testing.T) {
	h := mustHistogram([]float64{0, 1, 2, 3})
	for _, v := range []float64{0, 0.5, 1, 1.5, 2.99, 3, 5, -1} {
		h.Add(v)
	}
	// -1 clamps to bin 0; 3 and 5 clamp to last bin.
	wantCounts := []int64{3, 2, 3}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("bin %d count = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total() != 8 {
		t.Errorf("total = %d, want 8", h.Total())
	}
	if got := h.Prob(0); math.Abs(got-3.0/8) > 1e-12 {
		t.Errorf("Prob(0) = %v, want 0.375", got)
	}
	probs := h.Probs()
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probs sum to %v, want 1", sum)
	}
}

func TestHistogramBinIndexEdges(t *testing.T) {
	h := mustHistogram([]float64{-1, 0, 1, math.Inf(1)})
	cases := []struct {
		v    float64
		want int
	}{
		{-2, 0}, {-1, 0}, {-0.5, 0},
		{0, 1}, {0.999, 1},
		{1, 2}, {1e18, 2},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := h.BinIndex(c.v); got != c.want {
			t.Errorf("BinIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramBinMeanAndMidpoint(t *testing.T) {
	h := mustHistogram([]float64{0, 1, 2, math.Inf(1)})
	h.Add(0.25)
	h.Add(0.75)
	h.Add(5)
	if got := h.BinMean(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("BinMean(0) = %v, want 0.5", got)
	}
	// Empty bin falls back to midpoint.
	if got := h.BinMean(1); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("BinMean(1) = %v, want midpoint 1.5", got)
	}
	// Overflow bin mean uses actual observations.
	if got := h.BinMean(2); math.Abs(got-5) > 1e-12 {
		t.Errorf("BinMean(2) = %v, want 5", got)
	}
	// Overflow bin midpoint collapses to its finite edge.
	if got := h.Midpoint(2); got != 2 {
		t.Errorf("Midpoint(2) = %v, want 2", got)
	}
}

func TestHistogramInvalidEdges(t *testing.T) {
	for _, edges := range [][]float64{nil, {1}, {1, 1}, {2, 1}} {
		if _, err := NewHistogram(edges); err == nil {
			t.Errorf("NewHistogram(%v): want error", edges)
		}
	}
}

func TestHistogramClone(t *testing.T) {
	a := mustHistogram([]float64{0, 1, 2})
	a.Add(0.5)
	b := a.Clone()
	b.Add(1.5)
	if a.Total() != 1 || b.Total() != 2 {
		t.Errorf("clone not independent: a=%d b=%d", a.Total(), b.Total())
	}
}

// TestHistogramAllObservationsLand is a property test: every added value
// lands in exactly one bin and the per-bin means stay within bin bounds
// (up to clamping).
func TestHistogramAllObservationsLand(t *testing.T) {
	f := func(raw []int16) bool {
		h := mustHistogram([]float64{-10, -1, 0, 1, 10})
		for _, r := range raw {
			h.Add(float64(r) / 100)
		}
		return h.Total() == int64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
