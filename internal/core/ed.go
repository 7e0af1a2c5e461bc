package core

import (
	"fmt"
	"math"

	"metaprobe/internal/stats"
)

// ED is an error distribution for one (database, query type) pair
// (Section 4, Figure 4): a histogram either of relative estimation
// errors err = (r − r̂)/r̂ (Eq. 2), or — for the r̂ = 0 band, where the
// relative error is undefined — of absolute relevancy values.
type ED struct {
	// Absolute marks a histogram over absolute relevancy values
	// (BandZero) instead of relative errors.
	Absolute bool
	// Hist accumulates the observations.
	Hist *stats.Histogram
	// useBinMean selects the per-bin observed mean as each bin's
	// representative value in derived RDs (sharper); false uses the
	// bin midpoint (the ablation A3 baseline).
	useBinMean bool
}

// NewED creates an empty error distribution with the given bin edges.
func NewED(edges []float64, absolute, useBinMean bool) (*ED, error) {
	h, err := stats.NewHistogram(edges)
	if err != nil {
		return nil, fmt.Errorf("core: ED: %w", err)
	}
	return &ED{Absolute: absolute, Hist: h, useBinMean: useBinMean}, nil
}

// Observe records one training observation: the estimate r̂ and the
// actual relevancy r for a sample query.
func (e *ED) Observe(rhat, actual float64) error {
	if math.IsNaN(rhat) || math.IsNaN(actual) || actual < 0 {
		return fmt.Errorf("core: ED observation rhat=%v actual=%v is invalid", rhat, actual)
	}
	if e.Absolute {
		e.Hist.Add(actual)
		return nil
	}
	if rhat <= 0 {
		return fmt.Errorf("core: relative ED cannot observe rhat=%v; route to the zero band", rhat)
	}
	e.Hist.Add((actual - rhat) / rhat) // Eq. 2
	return nil
}

// Observations returns the number of recorded training observations.
func (e *ED) Observations() int64 { return e.Hist.Total() }

// frozenED is everything an RD derivation reads of an ED — the
// representative value and probability of each occupied bin — copied
// out of the histogram, so it stays fixed while online refinement keeps
// observing. RD-table rows hold one (rdtable.go); the tests' from-scratch
// derivation (ED.rd, reference_test.go) goes through a transient one,
// which is what makes the two derivations bit-identical.
type frozenED struct {
	absolute    bool
	reps, probs []float64
}

func (e *ED) freeze() frozenED {
	n := e.Hist.Bins()
	f := frozenED{absolute: e.Absolute, reps: make([]float64, 0, n), probs: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		p := e.Hist.Prob(i)
		if p == 0 {
			continue
		}
		rep := e.Hist.Midpoint(i)
		if e.useBinMean {
			rep = e.Hist.BinMean(i)
		}
		f.reps = append(f.reps, rep)
		f.probs = append(f.probs, p)
	}
	return f
}

// rd convolves the snapshot with rhat, writing the support into values
// (len(f.reps); may be f.reps itself).
func (f frozenED) rd(rhat float64, values []float64) (*RD, error) {
	if len(f.reps) == 0 {
		return nil, fmt.Errorf("core: ED has no observations")
	}
	for i, rep := range f.reps {
		v := rep
		if !f.absolute {
			v = rhat * (1 + rep)
		}
		if v < 0 {
			v = 0
		}
		values[i] = v
	}
	return newRD(values, f.probs)
}

// probs returns the per-bin probabilities (for chi-square comparisons
// and reports).
func (e *ED) probs() []float64 { return e.Hist.Probs() }

// ReferenceSample materializes up to max points (max ≤ 0 defaults to
// 256) distributed like this ED, for the drift monitor's two-sample KS
// test of fresh probe errors against the trained distribution. Each
// occupied bin contributes its Midpoint in proportion to its count.
// Fresh observations must be mapped through Quantize before the
// comparison, so both samples live on the same discrete support and
// the KS statistic reduces to the maximum cumulative difference over
// bins — comparing a continuous sample against a bin-reconstructed one
// directly would inflate the distance by up to the largest bin's mass.
// Midpoints (never BinMean) keep the support a pure function of the
// immutable bin edges, stable under online refinement. Returns nil
// when the ED has no observations. The result is deterministic.
func (e *ED) ReferenceSample(max int) []float64 {
	total := e.Hist.Total()
	if total == 0 {
		return nil
	}
	if max <= 0 {
		max = 256
	}
	n := int64(max)
	if total < n {
		n = total
	}
	out := make([]float64, 0, n)
	for i := 0; i < e.Hist.Bins(); i++ {
		p := e.Hist.Prob(i)
		if p == 0 {
			continue
		}
		count := int64(p*float64(n) + 0.5)
		if count == 0 {
			count = 1
		}
		rep := e.Hist.Midpoint(i)
		for j := int64(0); j < count; j++ {
			out = append(out, rep)
		}
	}
	return out
}

// Quantize maps an error value to the Midpoint of its bin — the
// support ReferenceSample uses — so fresh drift-window observations
// and the trained reference are compared on identical discrete points.
func (e *ED) Quantize(v float64) float64 {
	return e.Hist.Midpoint(e.Hist.BinIndex(v))
}

// Clone deep-copies the distribution.
func (e *ED) Clone() *ED {
	return &ED{Absolute: e.Absolute, Hist: e.Hist.Clone(), useBinMean: e.useBinMean}
}

// Compare runs the Pearson chi-square test of this (sampled) ED's
// observations against a reference (ideal) ED's probabilities,
// implementing the Section 4.2 goodness measure. Both must share bin
// edges. minExpected pools sparse bins (0 keeps all; the paper's 10
// bins / df 9 setup corresponds to minExpected 0).
func (e *ED) Compare(ideal *ED, minExpected float64) (stats.ChiSquareResult, error) {
	if len(e.Hist.Edges) != len(ideal.Hist.Edges) {
		return stats.ChiSquareResult{}, fmt.Errorf("core: comparing EDs with different binning")
	}
	return stats.PearsonChiSquare(e.Hist.Counts, ideal.probs(), minExpected)
}

// DefaultErrorEdges are the relative-error bins used for document
// frequency relevancy: finer near zero, an overflow bin above +400%
// (correlated terms routinely produce errors of several hundred
// percent). The lower bound −1 is exact: r ≥ 0 implies err ≥ −100%.
func DefaultErrorEdges() []float64 {
	return []float64{-1, -0.9, -0.75, -0.5, -0.25, -0.05, 0.05, 0.25, 0.5, 1.0, 2.0, 4.0, math.Inf(1)}
}

// defaultAbsoluteEdges are the bins for the r̂ = 0 band of document
// frequency relevancy: most mass sits at exactly 0, with a geometric
// tail for sampled-summary surprises.
func defaultAbsoluteEdges() []float64 {
	return []float64{0, 1, 2, 5, 10, 25, 50, 100, 500, math.Inf(1)}
}

// similarityErrorEdges are relative-error bins suited to cosine
// relevancy in [0, 1] (errors are milder than for counts).
func similarityErrorEdges() []float64 {
	return []float64{-1, -0.75, -0.5, -0.3, -0.15, -0.05, 0.05, 0.15, 0.3, 0.5, 1.0, math.Inf(1)}
}

// similarityAbsoluteEdges are absolute bins for the r̂ = 0 band of
// cosine relevancy.
func similarityAbsoluteEdges() []float64 {
	return []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0000001}
}
