package stats

import (
	"fmt"
	"math"
)

// ChiSquareResult reports a Pearson chi-square goodness-of-fit test.
type ChiSquareResult struct {
	// statistic is the Pearson X² statistic.
	statistic float64
	// degreesOfFreedom used for the p-value (bins − 1 unless bins were
	// pooled; pooling reduces it accordingly).
	degreesOfFreedom int
	// PValue is P(X² ≥ Statistic) under the null hypothesis that the
	// observations were drawn from the expected distribution. Section
	// 4.2 of the paper accepts the hypothesis when this value exceeds
	// 0.05 and interprets it as the "goodness" of a sampling size.
	PValue float64
	// bins is the number of bins that actually entered the statistic
	// after pooling near-empty expected bins.
	bins int
}

// PearsonChiSquare tests observed counts against expected probabilities.
// This is the "standard Pearson-χ² test (10 bins and degree of freedom
// as 9)" the paper uses to compare a sampled error distribution ED_S
// against the ideal distribution ED_total (Section 4.2).
//
// Bins whose expected count falls below minExpected (use 0 to keep all
// bins) are pooled into their left neighbour, the usual validity fix for
// the chi-square approximation; degrees of freedom shrink accordingly.
func PearsonChiSquare(observed []int64, expected []float64, minExpected float64) (ChiSquareResult, error) {
	if len(observed) != len(expected) {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square needs matching lengths, got %d observed vs %d expected", len(observed), len(expected))
	}
	if len(observed) < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square needs at least 2 bins, got %d", len(observed))
	}
	var n int64
	for _, o := range observed {
		if o < 0 {
			return ChiSquareResult{}, fmt.Errorf("stats: negative observed count %d", o)
		}
		n += o
	}
	if n == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square needs at least one observation")
	}
	totalP := 0.0
	for i, p := range expected {
		if p < 0 || math.IsNaN(p) {
			return ChiSquareResult{}, fmt.Errorf("stats: expected probability %d is %v", i, p)
		}
		totalP += p
	}
	if totalP <= 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: expected probabilities sum to zero")
	}

	// Pool bins with tiny expected counts into a running cell.
	type cell struct {
		obs int64
		exp float64
	}
	var cells []cell
	var carryObs int64
	var carryExp float64
	for i := range observed {
		carryObs += observed[i]
		carryExp += expected[i] / totalP * float64(n)
		if carryExp >= minExpected {
			cells = append(cells, cell{carryObs, carryExp})
			carryObs, carryExp = 0, 0
		}
	}
	if carryExp > 0 || carryObs > 0 {
		if len(cells) > 0 {
			cells[len(cells)-1].obs += carryObs
			cells[len(cells)-1].exp += carryExp
		} else {
			cells = append(cells, cell{carryObs, carryExp})
		}
	}
	if len(cells) < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: fewer than 2 usable bins after pooling (minExpected=%v)", minExpected)
	}

	stat := 0.0
	for _, c := range cells {
		if c.exp == 0 {
			if c.obs == 0 {
				continue
			}
			return ChiSquareResult{}, fmt.Errorf("stats: observed count %d in bin with zero expected probability", c.obs)
		}
		d := float64(c.obs) - c.exp
		stat += d * d / c.exp
	}
	df := len(cells) - 1
	return ChiSquareResult{
		statistic:        stat,
		degreesOfFreedom: df,
		PValue:           chiSquareSurvival(stat, df),
		bins:             len(cells),
	}, nil
}

// chiSquareSurvival returns P(X ≥ x) for a chi-square distribution with
// df degrees of freedom: the regularized upper incomplete gamma function
// Q(df/2, x/2).
func chiSquareSurvival(x float64, df int) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: chi-square needs positive df, got %d", df))
	}
	if x <= 0 {
		return 1
	}
	return regularizedGammaQ(float64(df)/2, x/2)
}

// regularizedGammaQ computes the regularized upper incomplete gamma
// function Q(a, x) = 1 − P(a, x), with P(a, x) = γ(a, x)/Γ(a) the
// regularized lower one, using the series expansion for x < a+1 and the
// continued fraction for x ≥ a+1 (Numerical Recipes §6.2). Accuracy is
// ~1e-14 over the ranges used here.
func regularizedGammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 1
	case x < a+1:
		return 1 - gammaPSeries(a, x)
	default:
		return gammaQContinuedFraction(a, x)
	}
}

const (
	gammaEpsilon  = 1e-15
	gammaMaxIters = 10000
)

// gammaPSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIters; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEpsilon {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) by its continued fraction
// (modified Lentz's method), valid for x ≥ a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIters; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEpsilon {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
