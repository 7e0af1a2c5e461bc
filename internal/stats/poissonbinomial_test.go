package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// atMost is P(X ≤ k) with a fresh buffer.
func atMost(k int, probs []float64) float64 {
	return PoissonBinomialAtMostInto(k, probs, make([]float64, max(k+1, 0)))
}

func TestPoissonBinomialAtMostBinomialCase(t *testing.T) {
	// Equal probabilities reduce to a plain binomial distribution.
	p := 0.3
	n := 10
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = p
	}
	for k := -1; k <= n+1; k++ {
		want := 0.0
		for j := 0; j <= k && j <= n; j++ {
			want += BinomialCoefficient(n, j) * math.Pow(p, float64(j)) * math.Pow(1-p, float64(n-j))
		}
		if k >= n {
			want = 1
		}
		if k < 0 {
			want = 0
		}
		got := atMost(k, probs)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(X<=%d) = %.15f, want %.15f", k, got, want)
		}
	}
}

// pmf is P(X = j) for j = 0..len(probs), by the O(n²) convolution DP:
// an oracle independent of the tail DP PoissonBinomialAtMostInto runs.
func pmf(probs []float64) []float64 {
	dp := make([]float64, len(probs)+1)
	dp[0] = 1
	for i, p := range probs {
		q := 1 - p
		for j := i + 1; j >= 1; j-- {
			dp[j] = dp[j]*q + dp[j-1]*p
		}
		dp[0] *= q
	}
	return dp
}

func TestPoissonBinomialPMFAgainstAtMost(t *testing.T) {
	probs := []float64{0.1, 0.9, 0.5, 0.3, 0.7}
	mass := pmf(probs)
	cum := 0.0
	for k := range mass {
		cum += mass[k]
		got := atMost(k, probs)
		if math.Abs(got-cum) > 1e-12 {
			t.Errorf("CDF mismatch at k=%d: AtMost=%v, PMF cumsum=%v", k, got, cum)
		}
	}
	if math.Abs(cum-1) > 1e-12 {
		t.Errorf("PMF sums to %v, want 1", cum)
	}
}

// TestPoissonBinomialAgainstBruteForce enumerates all outcome subsets
// for small n as the ground truth.
func TestPoissonBinomialAgainstBruteForce(t *testing.T) {
	probs := []float64{0.2, 0.55, 0.8, 0.05}
	n := len(probs)
	exact := make([]float64, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		ones := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p *= probs[i]
				ones++
			} else {
				p *= 1 - probs[i]
			}
		}
		exact[ones] += p
	}
	cum := 0.0
	for k := 0; k <= n; k++ {
		cum += exact[k]
		if got := atMost(k, probs); math.Abs(got-cum) > 1e-12 {
			t.Errorf("P(X<=%d) = %v, want %v", k, got, cum)
		}
	}
}

// Property: AtMost is a proper CDF — monotone in k, within [0,1], and
// clamps out-of-range probabilities.
func TestPoissonBinomialCDFProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		probs := make([]float64, len(raw))
		for i, r := range raw {
			probs[i] = float64(r) / 255 * 1.2 // deliberately allow >1 to test clamping
		}
		prev := 0.0
		for k := 0; k <= len(probs); k++ {
			v := atMost(k, probs)
			if v < prev-1e-12 || v < 0 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return math.Abs(prev-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinomialCoefficient(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {20, 3, 1140}, {10, 11, 0},
	}
	for _, c := range cases {
		if got := BinomialCoefficient(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("negative arguments should panic")
		}
	}()
	BinomialCoefficient(-1, 2)
}
