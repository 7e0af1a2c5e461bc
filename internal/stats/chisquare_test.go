package stats

import (
	"math"
	"testing"
)

// Reference values for the regularized incomplete gamma and chi-square
// survival functions (computed with scipy.special to 10+ digits).
func TestRegularizedGamma(t *testing.T) {
	cases := []struct {
		a, x, wantP float64
	}{
		// mpmath.gammainc(a, 0, x, regularized=True) at 30 digits.
		{0.5, 0.5, 0.6826894921370859}, // erf(1/sqrt2)
		{1, 1, 0.63212055882855768},    // 1 - e^{-1}
		{2, 1, 0.26424111765711536},
		{4.5, 2, 0.088587473168320829},
		{4.5, 10, 0.98208759547015673},
		{10, 10, 0.54207028552814779},
		{100, 90, 0.15822098918643017},
	}
	for _, c := range cases {
		if got := regularizedGammaQ(c.a, c.x); math.Abs(got-(1-c.wantP)) > 1e-9 {
			t.Errorf("Q(%v,%v) = %.12f, want %.12f", c.a, c.x, got, 1-c.wantP)
		}
	}
	if got := regularizedGammaQ(1, -1); got != 1 {
		t.Errorf("Q(1,-1) = %v, want 1", got)
	}
	if !math.IsNaN(regularizedGammaQ(-1, 1)) {
		t.Error("Q with non-positive a should be NaN")
	}
}

func TestChiSquareSurvival(t *testing.T) {
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		// mpmath chi-square survival reference values.
		{16.918977604620448, 9, 0.05}, // the 5% critical value at df=9
		{9, 9, 0.43727418891386706},
		{3.84145882069412, 1, 0.05},
		{0, 5, 1},
		{100, 9, 1.5735176303753984e-17},
	}
	for _, c := range cases {
		got := chiSquareSurvival(c.x, c.df)
		if math.Abs(got-c.want) > 1e-8*math.Max(1, c.want) && math.Abs(got-c.want) > 1e-12 {
			t.Errorf("sf(%v, df=%d) = %.12g, want %.12g", c.x, c.df, got, c.want)
		}
	}
}

func TestPearsonChiSquareExactFit(t *testing.T) {
	// Observations exactly proportional to expectations: statistic 0,
	// p-value 1.
	obs := []int64{10, 20, 30, 40}
	exp := []float64{0.1, 0.2, 0.3, 0.4}
	res, err := PearsonChiSquare(obs, exp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.statistic != 0 {
		t.Errorf("statistic = %v, want 0", res.statistic)
	}
	if res.PValue != 1 {
		t.Errorf("p = %v, want 1", res.PValue)
	}
	if res.degreesOfFreedom != 3 {
		t.Errorf("df = %d, want 3", res.degreesOfFreedom)
	}
}

func TestPearsonChiSquareKnownValue(t *testing.T) {
	// Classic die example: 60 rolls, observed counts below, uniform
	// expectation 10 per face. X² = (5-10)²/10 + ... computed by hand.
	obs := []int64{5, 8, 9, 8, 10, 20}
	exp := []float64{1, 1, 1, 1, 1, 1}
	res, err := PearsonChiSquare(obs, exp, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (25.0 + 4 + 1 + 4 + 0 + 100) / 10
	if math.Abs(res.statistic-want) > 1e-12 {
		t.Errorf("statistic = %v, want %v", res.statistic, want)
	}
	if res.degreesOfFreedom != 5 {
		t.Errorf("df = %d, want 5", res.degreesOfFreedom)
	}
	// mpmath chi-square sf(13.4, df=5) = 0.019905220334774378
	if math.Abs(res.PValue-0.019905220334774378) > 1e-9 {
		t.Errorf("p = %.12f, want 0.019905220335", res.PValue)
	}
}

func TestPearsonChiSquarePooling(t *testing.T) {
	// One expected bin is tiny; with minExpected=5 it must be pooled.
	obs := []int64{50, 49, 1}
	exp := []float64{0.5, 0.495, 0.005}
	res, err := PearsonChiSquare(obs, exp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.bins != 2 {
		t.Errorf("bins after pooling = %d, want 2", res.bins)
	}
	if res.degreesOfFreedom != 1 {
		t.Errorf("df = %d, want 1", res.degreesOfFreedom)
	}
}

func TestPearsonChiSquareErrors(t *testing.T) {
	if _, err := PearsonChiSquare([]int64{1}, []float64{1}, 0); err == nil {
		t.Error("single bin should fail")
	}
	if _, err := PearsonChiSquare([]int64{1, 2}, []float64{1}, 0); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := PearsonChiSquare([]int64{0, 0}, []float64{0.5, 0.5}, 0); err == nil {
		t.Error("zero observations should fail")
	}
	if _, err := PearsonChiSquare([]int64{1, -1}, []float64{0.5, 0.5}, 0); err == nil {
		t.Error("negative observed should fail")
	}
	if _, err := PearsonChiSquare([]int64{1, 1}, []float64{0, 0}, 0); err == nil {
		t.Error("all-zero expected should fail")
	}
	if _, err := PearsonChiSquare([]int64{1, 1}, []float64{1, 0}, 0); err == nil {
		t.Error("observed mass in zero-probability bin should fail")
	}
}

// TestChiSquareAcceptsTrueDistribution draws samples from a known
// distribution and checks that the test (as the paper uses it) accepts
// the truth most of the time at the 0.05 level.
func TestChiSquareAcceptsTrueDistribution(t *testing.T) {
	g := NewRNG(2024)
	exp := []float64{0.1, 0.2, 0.3, 0.25, 0.15}
	ws := mustWeightedSampler(exp)
	rejections := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		obs := make([]int64, len(exp))
		for i := 0; i < 500; i++ {
			obs[ws.Sample(g)]++
		}
		res, err := PearsonChiSquare(obs, exp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0.05 {
			rejections++
		}
	}
	// Expected rejection rate is 5%; allow generous slack.
	if rejections > trials/5 {
		t.Errorf("rejected the true distribution %d/%d times", rejections, trials)
	}
}
