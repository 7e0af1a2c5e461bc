package stats

import (
	"math"
	"testing"
)

func TestMcNemarKnownValue(t *testing.T) {
	// 30 discordant pairs favoring B, 10 favoring A:
	// statistic = (|30−10|−1)²/40 = 9.025, p ≈ 0.0026631 (mpmath).
	var a, b []bool
	for i := 0; i < 30; i++ {
		a = append(a, false)
		b = append(b, true)
	}
	for i := 0; i < 10; i++ {
		a = append(a, true)
		b = append(b, false)
	}
	for i := 0; i < 60; i++ { // concordant pairs are ignored
		a = append(a, true)
		b = append(b, true)
	}
	res, err := McNemar(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discordant01 != 30 || res.Discordant10 != 10 {
		t.Errorf("discordant counts %d/%d", res.Discordant01, res.Discordant10)
	}
	if math.Abs(res.statistic-9.025) > 1e-12 {
		t.Errorf("statistic = %v, want 9.025", res.statistic)
	}
	if math.Abs(res.PValue-0.002663119259) > 1e-9 {
		t.Errorf("p = %.12f, want 0.002663119259", res.PValue)
	}
}

func TestMcNemarEdgeCases(t *testing.T) {
	// Identical methods: p = 1.
	a := []bool{true, false, true}
	res, err := McNemar(a, a)
	if err != nil || res.PValue != 1 || res.statistic != 0 {
		t.Errorf("identical: %+v, %v", res, err)
	}
	// One discordant pair: continuity correction clamps to 0.
	res, err = McNemar([]bool{true}, []bool{false})
	if err != nil || res.statistic != 0 || res.PValue != 1 {
		t.Errorf("single discordant: %+v, %v", res, err)
	}
	// Validation.
	if _, err := McNemar([]bool{true}, []bool{true, false}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := McNemar(nil, nil); err == nil {
		t.Error("empty must fail")
	}
}

// TestMcNemarDetectsRealDifference: a method that wins 8% of discordant
// flips on 2000 queries should be detected at p < 0.05.
func TestMcNemarDetectsRealDifference(t *testing.T) {
	g := NewRNG(9)
	var a, b []bool
	for i := 0; i < 2000; i++ {
		base := g.Float64() < 0.5
		improved := base
		if !base && g.Float64() < 0.3 {
			improved = true // B fixes 30% of A's failures
		}
		a = append(a, base)
		b = append(b, improved)
	}
	res, err := McNemar(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("obvious improvement not detected: p = %v", res.PValue)
	}
}
