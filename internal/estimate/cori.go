package estimate

import (
	"fmt"
	"math"

	"metaprobe/internal/summary"
	"metaprobe/internal/textindex"
)

// CORI implements the classic CORI collection-selection algorithm
// (Callan, Lu, Croft: "Searching Distributed Collections with
// Inference Networks", SIGIR 1995) as an additional baseline from the
// database-selection literature the paper builds on.
//
// CORI ranks collections by a tf·idf analogue computed over collection
// statistics: for each query term t and collection Cᵢ,
//
//	T = df / (df + K),  K = k · ((1−b_s) + b_s · cwᵢ/avg_cw)
//	I = log((N + 0.5) / cf_t) / log(N + 1)
//	p(t|Cᵢ) = b + (1 − b) · T · I
//
// with N the number of collections, cf_t the number of collections
// containing t, cwᵢ collection i's word count, and the literature's
// constants b = 0.4, k = 200, b_s = 0.75. The collection score is the
// mean of p(t|Cᵢ) over the query's distinct terms.
//
// Unlike the Relevancy implementations, CORI is inherently a
// *cross-collection* ranker (it needs cf and avg_cw), so it scores all
// summaries at once rather than one database at a time.
type CORI struct{}

// CORI's constants: the default belief b, the term-frequency saturation
// constant k, and the word-count mixing weight b_s inside K.
const (
	coriB  float64 = 0.4
	coriK  float64 = 200
	coriBS float64 = 0.75
)

// NewCORI returns the ranker.
func NewCORI() *CORI { return &CORI{} }

// Scores ranks every collection of the set for the query; higher is
// better. Queries with no usable terms score 0 everywhere.
func (c *CORI) Scores(set *summary.Set, query string) ([]float64, error) {
	n := len(set.Summaries)
	if n == 0 {
		return nil, fmt.Errorf("estimate: CORI needs at least one summary")
	}
	terms := textindex.QueryTerms(query)
	scores := make([]float64, n)
	if len(terms) == 0 {
		return scores, nil
	}

	// Cross-collection statistics.
	avgCW := 0.0
	withCW := 0
	for _, s := range set.Summaries {
		if s.TermCount > 0 {
			avgCW += float64(s.TermCount)
			withCW++
		}
	}
	if withCW > 0 {
		avgCW /= float64(withCW)
	}
	cf := make([]int, len(terms))
	for ti, t := range terms {
		for _, s := range set.Summaries {
			if s.DF[t] > 0 {
				cf[ti]++
			}
		}
	}

	logN1 := math.Log(float64(n) + 1)
	for i, s := range set.Summaries {
		kc := coriK
		if avgCW > 0 && s.TermCount > 0 {
			kc = coriK * ((1 - coriBS) + coriBS*float64(s.TermCount)/avgCW)
		}
		total := 0.0
		for ti, t := range terms {
			df := float64(s.DF[t])
			var belief float64
			if df > 0 && cf[ti] > 0 {
				T := df / (df + kc)
				I := math.Log((float64(n)+0.5)/float64(cf[ti])) / logN1
				belief = coriB + (1-coriB)*T*I
			} else {
				belief = coriB
			}
			total += belief
		}
		scores[i] = total / float64(len(terms))
	}
	return scores, nil
}
