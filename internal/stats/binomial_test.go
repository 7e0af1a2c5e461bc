package stats

import (
	"math"
	"testing"
)

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
