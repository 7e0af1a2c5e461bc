package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates real-valued observations into bins with explicit
// edges. It is the representation behind the paper's error distributions
// (EDs): Section 4 summarizes the relative estimation errors of sample
// queries "into a histogram type of distribution" (Figure 4).
//
// Bins are defined by Edges: bin i covers [Edges[i], Edges[i+1]), except
// the last bin, which also includes its upper edge. Values outside
// [Edges[0], Edges[last]] are clamped into the first/last bin so that no
// observation is lost (relative errors are unbounded above).
//
// In addition to counts, the histogram tracks the running mean of the
// observations inside each bin. Using the per-bin mean (rather than the
// bin midpoint) as the bin's representative value makes the relevancy
// distributions derived from an ED noticeably sharper; the midpoint is
// still available for comparison (ablation A3 in DESIGN.md).
type Histogram struct {
	// Edges holds the bin boundaries in strictly increasing order;
	// len(Edges) = #bins + 1.
	Edges []float64
	// Counts holds the number of observations per bin.
	Counts []int64
	// Sums holds the sum of observations per bin (for per-bin means).
	Sums []float64
}

// NewHistogram creates an empty histogram with the given edges. Edges
// must contain at least two strictly increasing, finite-or-infinite
// values (an infinite last edge is permitted for an overflow bin).
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("stats: histogram needs at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("stats: histogram edges must be strictly increasing; edges[%d]=%v, edges[%d]=%v",
				i-1, edges[i-1], i, edges[i])
		}
	}
	cp := append([]float64(nil), edges...)
	return &Histogram{
		Edges:  cp,
		Counts: make([]int64, len(cp)-1),
		Sums:   make([]float64, len(cp)-1),
	}, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// BinIndex returns the bin an observation falls into, clamping
// out-of-range values into the first or last bin.
func (h *Histogram) BinIndex(v float64) int {
	if math.IsNaN(v) {
		// NaN observations indicate a bug upstream; clamp low so the
		// histogram stays well formed, but they should never occur.
		return 0
	}
	if v < h.Edges[0] {
		return 0
	}
	last := len(h.Counts) - 1
	if v >= h.Edges[len(h.Edges)-1] {
		return last
	}
	// sort.SearchFloat64s finds the first edge > v when we search for
	// v+ε; instead find the rightmost edge ≤ v.
	i := sort.SearchFloat64s(h.Edges, v)
	if i < len(h.Edges) && h.Edges[i] == v {
		if i > last {
			return last
		}
		return i
	}
	return i - 1
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	i := h.BinIndex(v)
	h.Counts[i]++
	h.Sums[i] += v
}

// Total returns the number of observations recorded so far.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Prob returns the empirical probability of bin i (0 when empty).
func (h *Histogram) Prob(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(t)
}

// Probs returns the empirical probabilities of all bins.
func (h *Histogram) Probs() []float64 {
	out := make([]float64, h.Bins())
	t := h.Total()
	if t == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(t)
	}
	return out
}

// BinMean returns the mean of the observations in bin i; if the bin is
// empty it falls back to the bin midpoint (or the finite edge for an
// unbounded overflow bin).
func (h *Histogram) BinMean(i int) float64 {
	if h.Counts[i] > 0 {
		return h.Sums[i] / float64(h.Counts[i])
	}
	return h.Midpoint(i)
}

// Midpoint returns the midpoint of bin i. For a bin with an infinite
// edge the finite edge is returned.
func (h *Histogram) Midpoint(i int) float64 {
	lo, hi := h.Edges[i], h.Edges[i+1]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	default:
		return (lo + hi) / 2
	}
}

// Clone returns a deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		Edges:  append([]float64(nil), h.Edges...),
		Counts: append([]int64(nil), h.Counts...),
		Sums:   append([]float64(nil), h.Sums...),
	}
}
