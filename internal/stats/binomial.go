package stats

import "fmt"

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
