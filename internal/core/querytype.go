package core

import "fmt"

// EstimateBand partitions queries by the magnitude of their initial
// estimate r̂(db, q) on a given database (Section 4.1's second
// criterion). The paper observes that queries with r̂ below a threshold
// behave very differently (the database barely covers the topic, actual
// relevancy is typically near zero, errors skew negative) from queries
// above it (the database covers the topic, correlated terms make
// errors skew positive).
type EstimateBand int

const (
	// BandZero: r̂ = 0. Under exact summaries the boolean-AND count is
	// then provably 0; under sampled summaries the actual value is
	// merely *usually* small, so this band learns a distribution over
	// absolute relevancy values rather than relative errors.
	BandZero EstimateBand = iota
	// BandLow: 0 < r̂ < threshold.
	BandLow
	// BandHigh: r̂ ≥ threshold.
	BandHigh
)

// String implements fmt.Stringer.
func (b EstimateBand) String() string {
	switch b {
	case BandZero:
		return "zero"
	case BandLow:
		return "low"
	case BandHigh:
		return "high"
	default:
		return fmt.Sprintf("EstimateBand(%d)", int(b))
	}
}

// TypeKey identifies one query type for one database — a leaf of the
// paper's Figure 9 decision tree. Note that the classification is
// database-dependent: the same query can be BandHigh on db₁ and
// BandLow on db₂.
type TypeKey struct {
	// Terms is the query's term count, clamped to the classifier's
	// MaxTerms (so 5-term queries share the 4-term type, etc.).
	Terms int
	// Band is the estimate-magnitude band.
	Band EstimateBand
}

// String implements fmt.Stringer ("2-term/high").
func (k TypeKey) String() string { return fmt.Sprintf("%d-term/%s", k.Terms, k.Band) }

// Classifier is the query-type decision tree (Figure 9): split first on
// the number of query terms, then on whether r̂ clears Threshold.
type Classifier struct {
	// Threshold separates BandLow from BandHigh; the paper found 100 a
	// good empirical threshold for document-frequency relevancy
	// (Section 4.1). Use a value in (0, 1) for similarity relevancy.
	Threshold float64
	// MaxTerms clamps the term-count split (default 4); queries longer
	// than MaxTerms share the MaxTerms type.
	MaxTerms int
}

// defaultClassifier returns the paper's configuration: threshold 100,
// term counts 1..4.
func defaultClassifier() Classifier {
	return Classifier{Threshold: 100, MaxTerms: 4}
}

// Classify maps (term count, estimate) to a type key.
func (c Classifier) Classify(numTerms int, rhat float64) TypeKey {
	maxTerms := c.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 4
	}
	if numTerms < 1 {
		numTerms = 1
	}
	if numTerms > maxTerms {
		numTerms = maxTerms
	}
	band := BandHigh
	switch {
	case rhat <= 0:
		band = BandZero
	case rhat < c.Threshold:
		band = BandLow
	}
	return TypeKey{Terms: numTerms, Band: band}
}

// allKeys enumerates every type key the classifier can produce, in a
// stable order (for reports like Figure 9's panel of EDs).
func (c Classifier) allKeys() []TypeKey {
	maxTerms := c.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 4
	}
	var keys []TypeKey
	for t := 1; t <= maxTerms; t++ {
		for _, b := range []EstimateBand{BandZero, BandLow, BandHigh} {
			keys = append(keys, TypeKey{Terms: t, Band: b})
		}
	}
	return keys
}
