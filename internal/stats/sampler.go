package stats

import (
	"fmt"
	"math"
	"sort"
)

// WeightedSampler draws indices in [0, n) with probability proportional
// to the supplied weights, in O(1) per draw, using Vose's alias method.
// The corpus generator uses it to draw terms from per-topic vocabularies
// and the query generator to draw query templates.
type WeightedSampler struct {
	prob  []float64
	alias []int
}

// NewWeightedSampler builds an alias table for the given non-negative
// weights. At least one weight must be positive.
func NewWeightedSampler(weights []float64) (*WeightedSampler, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("stats: weighted sampler needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("stats: weight %d is %v; weights must be finite and non-negative", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("stats: all %d weights are zero", n)
	}

	ws := &WeightedSampler{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; >1 means "rich", <1 means "poor".
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		ws.prob[s] = scaled[s]
		ws.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers: both queues drain to probability 1.
	for _, i := range large {
		ws.prob[i] = 1
		ws.alias[i] = i
	}
	for _, i := range small {
		ws.prob[i] = 1
		ws.alias[i] = i
	}
	return ws, nil
}

// Sample draws one index according to the weights.
func (ws *WeightedSampler) Sample(g *RNG) int {
	i := g.Intn(len(ws.prob))
	if g.Float64() < ws.prob[i] {
		return i
	}
	return ws.alias[i]
}

// ZipfWeights returns n weights following a Zipf power law with the
// given exponent s: weight(i) ∝ 1/(i+1)^s. Term popularity in both the
// synthetic vocabulary and the query log is Zipfian, matching the
// long-tailed statistics of real text and real query traces.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

// SampleWithoutReplacement draws k distinct indices from [0, n)
// uniformly at random. It panics if k > n.
func SampleWithoutReplacement(g *RNG, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("stats: cannot sample %d of %d without replacement", k, n))
	}
	// Partial Fisher-Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + g.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the values using linear
// interpolation between order statistics. It does not modify values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// mean returns the arithmetic mean of values, or NaN for an empty slice.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
