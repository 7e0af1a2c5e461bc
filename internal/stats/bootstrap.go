package stats

import (
	"fmt"
	"sort"
)

// BootstrapCI computes a percentile bootstrap confidence interval for
// the mean of values: resample with replacement reps times, take the
// (α/2, 1−α/2) percentiles of the resampled means. The experiment
// tables report these intervals so scaled-down runs carry their own
// error bars.
func BootstrapCI(values []float64, confidence float64, reps int, g *RNG) (lo, hi float64, err error) {
	if len(values) == 0 {
		return 0, 0, fmt.Errorf("stats: bootstrap needs at least one value")
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	if reps < 10 {
		reps = 1000
	}
	n := len(values)
	means := make([]float64, reps)
	for r := 0; r < reps; r++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += values[g.Intn(n)]
		}
		means[r] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	lo = quantile(means, alpha)
	hi = quantile(means, 1-alpha)
	return lo, hi, nil
}
