package stats

import "fmt"

// PoissonBinomialAtMostInto returns P(X ≤ k) where X is the number of
// successes among independent Bernoulli trials with the given success
// probabilities (the Poisson-binomial distribution).
//
// The adaptive-probing core uses this to compute P(dbᵢ ∈ top-k): given
// dbᵢ's relevancy value, every other database "beats" dbᵢ independently
// with some probability, and dbᵢ is in the top k exactly when at most
// k−1 others beat it (Section 5.1 of the paper).
//
// The computation is an O(n·k) dynamic program that only tracks counts
// up to k (everything above k is irrelevant to the tail), in a
// caller-provided buffer of length ≥ k+1, so hot paths run the tail
// without allocating. The buffer is overwritten.
func PoissonBinomialAtMostInto(k int, probs, dp []float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(probs) {
		return 1
	}
	// dp[j] = P(exactly j successes among trials seen so far), j ≤ k;
	// overflow (> k successes) is simply dropped, which is safe because
	// the answer only sums dp[0..k].
	dp = dp[:k+1]
	for j := range dp {
		dp[j] = 0
	}
	dp[0] = 1
	for _, p := range probs {
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		q := 1 - p
		hi := k
		for j := hi; j >= 1; j-- {
			dp[j] = dp[j]*q + dp[j-1]*p
		}
		dp[0] *= q
	}
	sum := 0.0
	for _, v := range dp {
		sum += v
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomialCoefficient returns C(n, k) as a float64; it panics on
// negative arguments. Values large enough to overflow float64 are not
// needed by callers (n is the number of mediated databases).
func BinomialCoefficient(n, k int) float64 {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("stats: C(%d,%d) undefined", n, k))
	}
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}
