// Package stats provides the statistical substrate used throughout
// metaprobe: seeded random number generation, weighted and Zipfian
// sampling, histograms, the Pearson chi-square goodness-of-fit test
// (with p-values computed from the regularized incomplete gamma
// function), and the Poisson-binomial distribution.
//
// Everything in this package is deterministic given a seed, which keeps
// corpus generation, query-log generation and the experiment suite
// reproducible run to run.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of randomness. It wraps math/rand.Rand so that
// every component of metaprobe derives its randomness from an explicit,
// reproducible stream rather than the global source.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream from the RNG. The child is a
// pure function of the parent's current state and the label, so forking
// with distinct labels yields reproducible, decorrelated streams (used to
// give every database and every experiment its own stream).
func (g *RNG) Fork(label int64) *RNG {
	// Mix the label through a splitmix64-style finalizer so that
	// consecutive labels do not produce correlated seeds.
	z := uint64(g.r.Int63()) ^ (uint64(label)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// normFloat64 returns a standard normal variate.
func (g *RNG) normFloat64() float64 { return g.r.NormFloat64() }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Poisson returns a Poisson(mean) variate using Knuth's method for small
// means and a normal approximation for large ones. Document lengths in
// the corpus generator are Poisson-distributed around a topic mean.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction is ample for
		// document-length sampling.
		v := mean + g.normFloat64()*math.Sqrt(mean) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
