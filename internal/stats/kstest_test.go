package stats

import (
	"math"
	"testing"
)

func TestKSIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	res, err := KolmogorovSmirnov(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue != 1 {
		t.Errorf("identical samples: %+v", res)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) + 1000
	}
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 1 {
		t.Errorf("disjoint D = %v, want 1", res.Statistic)
	}
	if res.PValue > 1e-6 {
		t.Errorf("disjoint p = %v, want ~0", res.PValue)
	}
}

func TestKSSameDistributionAccepted(t *testing.T) {
	g := NewRNG(31)
	rejections := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 300)
		b := make([]float64, 400)
		for i := range a {
			a[i] = g.normFloat64()
		}
		for i := range b {
			b[i] = g.normFloat64()
		}
		res, err := KolmogorovSmirnov(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0.05 {
			rejections++
		}
	}
	if rejections > trials/5 {
		t.Errorf("rejected identical distributions %d/%d times", rejections, trials)
	}
}

func TestKSShiftedDistributionRejected(t *testing.T) {
	g := NewRNG(32)
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = g.normFloat64()
		b[i] = g.normFloat64() + 1 // clearly shifted
	}
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.001 {
		t.Errorf("shifted distribution p = %v, want rejection", res.PValue)
	}
}

func TestKSValidation(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, []float64{1}); err == nil {
		t.Error("empty sample must fail")
	}
	if _, err := KolmogorovSmirnov([]float64{1}, nil); err == nil {
		t.Error("empty sample must fail")
	}
}

func TestKSSurvivalBounds(t *testing.T) {
	if got := ksSurvival(0); got != 1 {
		t.Errorf("Q(0) = %v", got)
	}
	if got := ksSurvival(-1); got != 1 {
		t.Errorf("Q(-1) = %v", got)
	}
	if got := ksSurvival(10); got > 1e-10 {
		t.Errorf("Q(10) = %v", got)
	}
	// Known reference: Q(0.828) ≈ 0.4986 (the λ where p ≈ 0.5);
	// tabulated from the Kolmogorov distribution.
	got := ksSurvival(0.828)
	if math.Abs(got-0.4986) > 0.01 {
		t.Errorf("Q(0.828) = %v, want ≈0.4986", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		v := ksSurvival(l)
		if v > prev+1e-12 {
			t.Fatalf("Q not monotone at λ=%v", l)
		}
		prev = v
	}
}
