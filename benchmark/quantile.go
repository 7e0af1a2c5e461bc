package main

import (
	"math"
	"sort"
)

// quantile returns the exact sample quantile of sorted values by
// nearest rank: the smallest value with at least a share q of the
// sample at or below it. No interpolation, so it is always a value
// that was measured.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}
