package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// mustWeightedSampler is NewWeightedSampler for weights known valid.
func mustWeightedSampler(weights []float64) *WeightedSampler {
	ws, err := NewWeightedSampler(weights)
	if err != nil {
		panic(err)
	}
	return ws
}

func TestWeightedSamplerMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 0, 4}
	ws := mustWeightedSampler(weights)
	g := NewRNG(99)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[ws.Sample(g)]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %v, want %v", i, got, want)
		}
	}
	if counts[3] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[3])
	}
}

func TestWeightedSamplerErrors(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0},
		{-1, 2},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, weights := range cases {
		if _, err := NewWeightedSampler(weights); err == nil {
			t.Errorf("NewWeightedSampler(%v): want error, got nil", weights)
		}
	}
}

// TestWeightedSamplerAlwaysInRange is a property test: for any valid
// weight vector, sampled indices stay within range and only positive
// weights are ever chosen.
func TestWeightedSamplerAlwaysInRange(t *testing.T) {
	g := NewRNG(7)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		positive := false
		for i, r := range raw {
			weights[i] = float64(r)
			if r > 0 {
				positive = true
			}
		}
		if !positive {
			return true // invalid input by contract
		}
		ws, err := NewWeightedSampler(weights)
		if err != nil {
			return false
		}
		for i := 0; i < 64; i++ {
			idx := ws.Sample(g)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 1)
	want := []float64{1, 0.5, 1.0 / 3, 0.25}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("ZipfWeights[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	w0 := ZipfWeights(3, 0)
	for i, v := range w0 {
		if v != 1 {
			t.Errorf("exponent 0 weight[%d] = %v, want 1", i, v)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := NewRNG(5)
	got := SampleWithoutReplacement(g, 10, 10)
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid or duplicate sample %d in %v", v, got)
		}
		seen[v] = true
	}
	if len(got) != 10 {
		t.Fatalf("got %d samples, want 10", len(got))
	}

	defer func() {
		if recover() == nil {
			t.Error("k > n should panic")
		}
	}()
	SampleWithoutReplacement(g, 3, 4)
}

func TestQuantileMeanVariance(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if got := quantile(vals, 0); got != 1 {
		t.Errorf("Quantile 0 = %v, want 1", got)
	}
	if got := quantile(vals, 1); got != 4 {
		t.Errorf("Quantile 1 = %v, want 4", got)
	}
	if got := quantile(vals, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := mean(vals); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	// The population variance, as the mean of squared deviations.
	sq := make([]float64, len(vals))
	for i, v := range vals {
		sq[i] = (v - mean(vals)) * (v - mean(vals))
	}
	if got := mean(sq); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("variance = %v, want 1.25", got)
	}
	if !math.IsNaN(mean(nil)) || !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty input should yield NaN")
	}
	// Quantile must not mutate its input.
	if vals[0] != 4 || vals[1] != 1 {
		t.Error("Quantile mutated its input")
	}
}

func TestBootstrapCI(t *testing.T) {
	g := NewRNG(44)
	// Bernoulli(0.5) sample: the CI should bracket 0.5 and be ~±2/sqrt(n).
	n := 400
	values := make([]float64, n)
	ones := 0
	for i := range values {
		if g.Float64() < 0.5 {
			values[i] = 1
			ones++
		}
	}
	mean := float64(ones) / float64(n)
	lo, hi, err := BootstrapCI(values, 0.95, 2000, g)
	if err != nil {
		t.Fatal(err)
	}
	if lo > mean || hi < mean {
		t.Errorf("CI [%v, %v] does not bracket the sample mean %v", lo, hi, mean)
	}
	width := hi - lo
	if width < 0.05 || width > 0.2 {
		t.Errorf("CI width %v implausible for n=400 Bernoulli", width)
	}
	// Degenerate data: zero-width interval.
	lo, hi, err = BootstrapCI([]float64{3, 3, 3}, 0.9, 100, g)
	if err != nil || lo != 3 || hi != 3 {
		t.Errorf("constant data CI = [%v, %v], %v", lo, hi, err)
	}
	// Validation.
	if _, _, err := BootstrapCI(nil, 0.9, 100, g); err == nil {
		t.Error("empty values must fail")
	}
	if _, _, err := BootstrapCI([]float64{1}, 1.5, 100, g); err == nil {
		t.Error("bad confidence must fail")
	}
}
