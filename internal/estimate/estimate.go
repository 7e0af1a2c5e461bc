// Package estimate implements database-relevancy definitions and their
// summary-based estimators (Section 2 of the paper).
//
// A Relevancy bundles the two operations the metasearching core needs:
//
//   - Estimate — compute r̂(db, q) from the database's content summary
//     alone (no network traffic);
//   - Probe — issue the live query to the database and observe the
//     exact r(db, q) (the paper's probing operation).
//
// Two definitions are provided, mirroring Section 2.1:
//
//   - DocFrequency — r(db, q) is the number of matching documents
//     (documents containing all query terms); estimated with the
//     term-independence estimator of Eq. 1. This is the definition the
//     paper's evaluation uses.
//   - DocSimilarity — r(db, q) is the similarity of the most relevant
//     document (tf·idf cosine); estimated from the summary under a
//     GlOSS-style assumption.
package estimate

import (
	"context"
	"fmt"
	"math"

	"metaprobe/internal/hidden"
	"metaprobe/internal/summary"
	"metaprobe/internal/textindex"
)

// Relevancy is one database-relevancy definition with its estimator.
type Relevancy interface {
	// Name identifies the definition ("doc-frequency", ...).
	Name() string
	// Estimate computes r̂(db, q) from the database's summary.
	Estimate(s *summary.Summary, query string) float64
	// Probe issues the query to the database and returns the exact
	// relevancy r(db, q). It searches under the Background context; a
	// caller's context reaches it through hidden.WithContext.
	Probe(db hidden.Database, query string) (float64, error)
}

// DocFrequency implements the document-frequency-based relevancy with
// the term-independence estimator:
//
//	r̂(db, q) = |db| · Π_i df(db, tᵢ)/N
//
// (Eq. 1; N is the summary's document-count denominator). Repeated
// query terms are deduplicated after normalization, consistent with
// boolean-AND match semantics.
type DocFrequency struct{}

// NewDocFrequency returns the definition.
func NewDocFrequency() *DocFrequency { return &DocFrequency{} }

// Name implements Relevancy.
func (d *DocFrequency) Name() string { return "doc-frequency" }

// Terms is textindex.QueryTerms: the query's distinct normalized terms
// in order of first appearance; an empty result means the query cannot
// match anything.
func (d *DocFrequency) Terms(query string) []string { return textindex.QueryTerms(query) }

// Estimate implements Relevancy (Eq. 1).
func (d *DocFrequency) Estimate(s *summary.Summary, query string) float64 {
	return d.EstimateTerms(s, d.Terms(query))
}

// EstimateTerms is Estimate over pre-normalized terms (from Terms). It
// computes the identical product in the identical order, so callers
// estimating one query against many summaries can tokenize once and
// get bit-equal results per database.
func (d *DocFrequency) EstimateTerms(s *summary.Summary, terms []string) float64 {
	if len(terms) == 0 {
		return 0
	}
	est := float64(s.Size)
	for _, t := range terms {
		est *= s.Fraction(t)
		if est == 0 {
			return 0
		}
	}
	return est
}

// Probe implements Relevancy: the exact number of matching documents,
// read off the answer page.
func (d *DocFrequency) Probe(db hidden.Database, query string) (float64, error) {
	res, err := db.SearchContext(context.Background(), query, 0)
	if err != nil {
		return 0, fmt.Errorf("estimate: probing %s: %w", db.Name(), err)
	}
	return float64(res.MatchCount), nil
}

// DocSimilarity implements the document-similarity-based relevancy:
// r(db, q) is the cosine score of the best document. The estimator
// assumes the best document contains every query term that the
// database contains at all, each with tf 1 — the "high-correlation"
// assumption of the GlOSS family — which yields
//
//	ŝ(db, q) = Σ_{t ∈ q, df>0} w(t) / (‖w‖ · √m)
//
// with idf weights w(t) = log(1 + N/df(t)) and m the number of query
// terms present in the database. Like Eq. 1, it is deliberately a
// *biased* estimator whose error the probabilistic model corrects.
type DocSimilarity struct{}

// NewDocSimilarity returns the definition.
func NewDocSimilarity() *DocSimilarity { return &DocSimilarity{} }

// Name implements Relevancy.
func (d *DocSimilarity) Name() string { return "doc-similarity" }

// Estimate implements Relevancy.
func (d *DocSimilarity) Estimate(s *summary.Summary, query string) float64 {
	var dot, qnorm float64
	matched := 0
	for _, t := range textindex.QueryTerms(query) {
		frac := s.Fraction(t)
		// idf weight relative to this database.
		var w float64
		if frac > 0 {
			w = logIDF(1 / frac)
			dot += w
			matched++
		} else {
			// Terms absent from the database still contribute to the
			// query norm with a high idf (they are rare by evidence).
			w = logIDF(float64(max(s.DocCount, 2)))
		}
		qnorm += w * w
	}
	if matched == 0 || qnorm == 0 {
		return 0
	}
	return dot / (math.Sqrt(qnorm) * math.Sqrt(float64(matched)))
}

// logIDF is log(1 + x), the idf damping used by both the index and the
// similarity estimator.
func logIDF(x float64) float64 { return math.Log(1 + x) }

// Probe implements Relevancy: the score of the top returned document.
func (d *DocSimilarity) Probe(db hidden.Database, query string) (float64, error) {
	res, err := db.SearchContext(context.Background(), query, 1)
	if err != nil {
		return 0, fmt.Errorf("estimate: probing %s: %w", db.Name(), err)
	}
	if len(res.Docs) == 0 {
		return 0, nil
	}
	return res.Docs[0].Score, nil
}
