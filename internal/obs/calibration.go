package obs

import (
	"fmt"
	"sync"
)

// Calibration is a concurrency-safe reliability accumulator for the
// certainty level the metasearcher reports with every answer. The
// paper's semantic contract (Section 3.3) is that E[Cor] is a
// probability the user can rely on — "suppose we select the top-1
// database for 100 queries each with 0.85 certainty ... for around 85
// queries we have got the correct answer" — so a production deployment
// must keep checking that promise against realized correctness.
//
// Observe takes one (predicted certainty, realized correctness) pair;
// realized correctness is 0/1 under the absolute metric and fractional
// under the partial metric, computed from ground truth where available
// (experiments, the benchmark) or from live-probe outcomes. The accumulator
// bins predictions over [0, 1] and exposes per-bin counts,
// the Brier score and the expected-vs-observed gap — the online analog
// of the offline E-CAL study.
//
// A nil *Calibration is a valid disabled value: Observe is a no-op and
// Snapshot returns zeros, matching the package's nil-tolerance
// convention.
type Calibration struct {
	mu   sync.Mutex
	bins []calBin
	// n, sumPred, sumReal, brierSum aggregate over all observations.
	n        int64
	sumPred  float64
	sumReal  float64
	brierSum float64
}

// calBin accumulates one prediction bucket.
type calBin struct {
	n    int64
	pred float64
	real float64
}

// DefaultCalibrationBins is the bin count used when NewCalibration is
// given a non-positive one.
const DefaultCalibrationBins = 10

// NewCalibration returns an accumulator with numBins equal-width
// prediction bins over [0, 1] (numBins ≤ 0 defaults to
// DefaultCalibrationBins).
func NewCalibration(numBins int) *Calibration {
	if numBins <= 0 {
		numBins = DefaultCalibrationBins
	}
	return &Calibration{bins: make([]calBin, numBins)}
}

// Observe records one answer: the certainty predicted at selection time
// and the correctness realized against ground truth. Both values are
// clamped to [0, 1]. Safe for concurrent use.
func (c *Calibration) Observe(predicted, realized float64) {
	if c == nil {
		return
	}
	predicted = clamp01(predicted)
	realized = clamp01(realized)
	bi := int(predicted * float64(len(c.bins)))
	if bi >= len(c.bins) {
		bi = len(c.bins) - 1
	}
	diff := predicted - realized
	c.mu.Lock()
	c.bins[bi].n++
	c.bins[bi].pred += predicted
	c.bins[bi].real += realized
	c.n++
	c.sumPred += predicted
	c.sumReal += realized
	c.brierSum += diff * diff
	c.mu.Unlock()
}

// CalibrationBin is one prediction bucket of a snapshot.
type CalibrationBin struct {
	// Lo and Hi bound the bucket's predicted certainty, [Lo, Hi).
	Lo, Hi float64
	// Count is the number of answers whose prediction fell here.
	Count int64
	// MeanPredicted is the bucket's average predicted certainty.
	MeanPredicted float64
	// MeanObserved is the bucket's average realized correctness.
	MeanObserved float64
	// Gap is MeanObserved − MeanPredicted (positive: the model
	// under-promises; negative: it over-promises).
	Gap float64
}

// CalibrationSnapshot is a consistent point-in-time view of the
// accumulator — what /debug/calibration serves and BENCH reports embed.
type CalibrationSnapshot struct {
	// Samples is the number of observations.
	Samples int64
	// Brier is the mean squared difference between predicted certainty
	// and realized correctness (0 is perfect, 0.25 is as bad as always
	// predicting 0.5 on balanced binary outcomes).
	Brier float64
	// ECE is the expected calibration error: the count-weighted mean of
	// the per-bin absolute gaps.
	ECE float64
	// Gap is the overall mean observed minus mean predicted.
	Gap float64
	// Bins are the per-bucket reliability rows, in ascending prediction
	// order (empty buckets included, with zero counts).
	Bins []CalibrationBin
}

// Snapshot returns the current reliability view.
func (c *Calibration) Snapshot() CalibrationSnapshot {
	if c == nil {
		return CalibrationSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CalibrationSnapshot{Samples: c.n, Bins: make([]CalibrationBin, len(c.bins))}
	width := 1 / float64(len(c.bins))
	for i, b := range c.bins {
		out := CalibrationBin{Lo: float64(i) * width, Hi: float64(i+1) * width, Count: b.n}
		if b.n > 0 {
			out.MeanPredicted = b.pred / float64(b.n)
			out.MeanObserved = b.real / float64(b.n)
			out.Gap = out.MeanObserved - out.MeanPredicted
			snap.ECE += float64(b.n) / float64(c.n) * abs(out.Gap)
		}
		snap.Bins[i] = out
	}
	if c.n > 0 {
		snap.Brier = c.brierSum / float64(c.n)
		snap.Gap = (c.sumReal - c.sumPred) / float64(c.n)
	}
	return snap
}

// Bind registers the accumulator's aggregates and per-bin counts as
// lazily evaluated series in reg, so /metrics carries the calibration
// signal alongside the systems metrics. Safe to call with a nil
// registry or a nil accumulator (both no-op).
func (c *Calibration) Bind(reg *Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.Help("mp_calibration_samples_total", "Answers scored against realized correctness.")
	reg.Help("mp_calibration_brier_score", "Mean squared error of predicted certainty vs realized correctness.")
	reg.Help("mp_calibration_ece", "Expected calibration error (count-weighted mean absolute per-bin gap).")
	reg.Help("mp_calibration_gap", "Mean realized correctness minus mean predicted certainty.")
	reg.Help("mp_calibration_bin_count", "Answers per predicted-certainty bin.")
	reg.Help("mp_calibration_bin_gap", "Observed minus predicted correctness per bin.")
	reg.CounterFunc("mp_calibration_samples_total", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.n)
	})
	reg.GaugeFunc("mp_calibration_brier_score", nil, func() float64 { return c.Snapshot().Brier })
	reg.GaugeFunc("mp_calibration_ece", nil, func() float64 { return c.Snapshot().ECE })
	reg.GaugeFunc("mp_calibration_gap", nil, func() float64 { return c.Snapshot().Gap })
	for i := range c.bins {
		i := i
		lbl := Labels{"bin": c.binLabel(i)}
		reg.GaugeFunc("mp_calibration_bin_count", lbl, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.bins[i].n)
		})
		reg.GaugeFunc("mp_calibration_bin_gap", lbl, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			b := c.bins[i]
			if b.n == 0 {
				return 0
			}
			return (b.real - b.pred) / float64(b.n)
		})
	}
}

// binLabel renders bin i's range for metric labels ("0.70-0.80").
func (c *Calibration) binLabel(i int) string {
	width := 1 / float64(len(c.bins))
	return fmt.Sprintf("%.2f-%.2f", float64(i)*width, float64(i+1)*width)
}

func clamp01(v float64) float64 {
	if v != v || v < 0 { // NaN or negative
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
