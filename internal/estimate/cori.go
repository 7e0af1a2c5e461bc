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
// containing t, cwᵢ collection i's word count, and the usual defaults
// b = 0.4, k = 200, b_s = 0.75. The collection score is the mean of
// p(t|Cᵢ) over the query terms.
//
// Unlike the Relevancy implementations, CORI is inherently a
// *cross-collection* ranker (it needs cf and avg_cw), so it scores all
// summaries at once rather than one database at a time.
type CORI struct {
	// b is the default belief (default 0.4).
	b float64
	// k is the term-frequency saturation constant (default 200).
	k float64
	// bs is the word-count mixing weight inside K (default 0.75).
	bs float64
	// tok normalizes query terms (default: the standard tokenizer).
	tok *textindex.Tokenizer
}

// NewCORI returns a ranker with the literature's default parameters.
func NewCORI() *CORI {
	return &CORI{b: 0.4, k: 200, bs: 0.75, tok: textindex.DefaultTokenizer()}
}

// Scores ranks every collection of the set for the query; higher is
// better. Queries with no usable terms score 0 everywhere.
func (c *CORI) Scores(set *summary.Set, query string) ([]float64, error) {
	n := len(set.Summaries)
	if n == 0 {
		return nil, fmt.Errorf("estimate: CORI needs at least one summary")
	}
	tok := c.tok
	if tok == nil {
		tok = textindex.DefaultTokenizer()
	}
	b, k, bs := c.b, c.k, c.bs
	if b == 0 {
		b = 0.4
	}
	if k == 0 {
		k = 200
	}
	if bs == 0 {
		bs = 0.75
	}

	// Distinct normalized query terms.
	raw := tok.Tokenize(query)
	seen := make(map[string]struct{}, len(raw))
	terms := raw[:0]
	for _, t := range raw {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		terms = append(terms, t)
	}
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
		kc := k
		if avgCW > 0 && s.TermCount > 0 {
			kc = k * ((1 - bs) + bs*float64(s.TermCount)/avgCW)
		}
		total := 0.0
		for ti, t := range terms {
			df := float64(s.DF[t])
			var belief float64
			if df > 0 && cf[ti] > 0 {
				T := df / (df + kc)
				I := math.Log((float64(n)+0.5)/float64(cf[ti])) / logN1
				belief = b + (1-b)*T*I
			} else {
				belief = b
			}
			total += belief
		}
		scores[i] = total / float64(len(terms))
	}
	return scores, nil
}
