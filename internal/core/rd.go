// Package core implements the paper's contribution: the probabilistic
// relevancy model and adaptive probing.
//
// The pipeline for one user query q over n mediated databases:
//
//  1. For every database dbᵢ, compute the summary-based estimate
//     r̂(dbᵢ, q) (Eq. 1 via the estimate package).
//  2. Classify q into a query type for dbᵢ (Section 4.1's decision
//     tree: number of terms × whether r̂ clears a threshold) and look
//     up the error distribution (ED) learned for that type by sampling
//     dbᵢ with training queries.
//  3. Convolve r̂ with the ED to obtain the relevancy distribution
//     (RD): a discrete distribution over the *actual* relevancy
//     r(dbᵢ, q) (Section 3.1, Example 3).
//  4. Select the k-set with the highest expected correctness
//     E[Cor(DBᵏ)] (Sections 3.2–3.3, 5.1), computed exactly from the
//     RDs.
//  5. If E[Cor] is below the user-required certainty t, probe
//     databases adaptively (Section 5): issue q live, collapse that
//     database's RD to an impulse, re-evaluate — choosing probes with
//     the greedy usefulness policy (Section 5.4).
package core

import (
	"fmt"
	"math"
	"sort"
)

// probEpsilon is the tolerance for probability normalization checks.
const probEpsilon = 1e-9

// RD is a relevancy distribution: a discrete probability distribution
// over the actual relevancy value of one database for one query.
// Values are strictly increasing and probabilities sum to 1. RDs are
// immutable once built.
type RD struct {
	values []float64
	probs  []float64
	// cumLT[i] = Σ_{t<i} probs[t] and cumGE[i] = Σ_{t≥i} probs[t]
	// (both length len(values)+1, cumLT[0] = cumGE[len] = 0). Built at
	// construction so prLess/prGreater answer with one binary search
	// instead of a linear sum — they sit inside the innermost loop of
	// the selection scratch's grid build.
	cumLT []float64
	cumGE []float64
}

// newRD builds an RD from (value, probability) pairs. Duplicate values
// are merged, zero-probability entries dropped, and probabilities
// normalized; at least one positive-probability value is required.
func newRD(values, probs []float64) (*RD, error) {
	if len(values) != len(probs) {
		return nil, fmt.Errorf("core: RD needs matching slices, got %d values and %d probs", len(values), len(probs))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("core: RD needs at least one value")
	}
	type vp struct{ v, p float64 }
	pairs := make([]vp, 0, len(values))
	total := 0.0
	for i := range values {
		v, p := values[i], probs[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: RD value %d is %v", i, v)
		}
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("core: RD probability %d is %v", i, p)
		}
		if p == 0 {
			continue
		}
		pairs = append(pairs, vp{v, p})
		total += p
	}
	if total <= 0 {
		return nil, fmt.Errorf("core: RD has no positive probability mass")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	rd := &RD{}
	for _, pr := range pairs {
		p := pr.p / total
		if n := len(rd.values); n > 0 && rd.values[n-1] == pr.v {
			rd.probs[n-1] += p
			continue
		}
		rd.values = append(rd.values, pr.v)
		rd.probs = append(rd.probs, p)
	}
	if len(rd.probs) == 1 {
		// Merged duplicates' normalised sum can round below 1; an impulse
		// is exact, as the selection scratch assumes of every impulse.
		rd.probs[0] = 1
	}
	rd.finalize()
	return rd, nil
}

// finalize builds the cumulative-probability arrays; every constructor
// calls it once the support is fixed.
func (r *RD) finalize() {
	n := len(r.values)
	r.cumLT = make([]float64, n+1)
	r.cumGE = make([]float64, n+1)
	for i := 0; i < n; i++ {
		r.cumLT[i+1] = r.cumLT[i] + r.probs[i]
	}
	for i := n - 1; i >= 0; i-- {
		r.cumGE[i] = r.probs[i] + r.cumGE[i+1]
	}
}

// MustRD is newRD that panics on error (for tests and literals).
func MustRD(values, probs []float64) *RD {
	rd, err := newRD(values, probs)
	if err != nil {
		panic(err)
	}
	return rd
}

// Impulse returns the RD of a known relevancy — what a database's RD
// becomes after probing (Section 3.4: "the RD changes from a regular
// distribution to an impulse function").
func Impulse(v float64) *RD {
	rd := &RD{values: []float64{v}, probs: []float64{1}}
	rd.finalize()
	return rd
}

// setImpulse re-points a single-support RD at v in place. Only
// selection-owned scratch impulses use it — RDs handed out anywhere
// else stay immutable. The cumulative arrays of an impulse do not
// depend on the value, so they stay correct.
func (r *RD) setImpulse(v float64) {
	r.values[0] = v
}

// zeroImpulse is the shared read-only impulse at relevancy 0 — the
// result for the overwhelmingly common cold regime (r̂ = 0, never
// observed). The version RD table hands it out instead of
// allocating a fresh impulse per query. Like every published RD it
// must never be mutated: ApplyProbe replaces selection entries, and
// setImpulse is reserved for selection-owned impulses.
var zeroImpulse = Impulse(0)

// isImpulse reports whether the RD has a single support point.
func (r *RD) isImpulse() bool { return len(r.values) == 1 }

// Len returns the number of support points.
func (r *RD) Len() int { return len(r.values) }

// Value returns the i-th support value (ascending order).
func (r *RD) Value(i int) float64 { return r.values[i] }

// Prob returns the probability of the i-th support value.
func (r *RD) Prob(i int) float64 { return r.probs[i] }

// Mean returns the expected relevancy.
func (r *RD) Mean() float64 {
	m := 0.0
	for i, v := range r.values {
		m += v * r.probs[i]
	}
	return m
}

// entropy returns the Shannon entropy (nats) of the distribution; an
// impulse has entropy 0. The max-uncertainty probing policy uses it.
func (r *RD) entropy() float64 {
	h := 0.0
	for _, p := range r.probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// prGreater returns P(X > v).
func (r *RD) prGreater(v float64) float64 {
	// First index with value > v.
	i := sort.SearchFloat64s(r.values, v)
	if i < len(r.values) && r.values[i] == v {
		i++
	}
	return r.cumGE[i]
}

// prEq returns P(X = v).
func (r *RD) prEq(v float64) float64 {
	i := sort.SearchFloat64s(r.values, v)
	if i < len(r.values) && r.values[i] == v {
		return r.probs[i]
	}
	return 0
}

// prLess returns P(X < v).
func (r *RD) prLess(v float64) float64 {
	// First index with value ≥ v; everything before it is below v.
	return r.cumLT[sort.SearchFloat64s(r.values, v)]
}

// validate checks RD invariants; used by tests.
func (r *RD) validate() error {
	if len(r.values) != len(r.probs) || len(r.values) == 0 {
		return fmt.Errorf("core: malformed RD: %d values, %d probs", len(r.values), len(r.probs))
	}
	total := 0.0
	for i := range r.values {
		if i > 0 && r.values[i] <= r.values[i-1] {
			return fmt.Errorf("core: RD values not strictly increasing at %d", i)
		}
		if r.probs[i] <= 0 {
			return fmt.Errorf("core: RD probability %d is %v", i, r.probs[i])
		}
		total += r.probs[i]
	}
	if math.Abs(total-1) > probEpsilon {
		return fmt.Errorf("core: RD probabilities sum to %v", total)
	}
	if len(r.cumLT) != len(r.values)+1 || len(r.cumGE) != len(r.values)+1 {
		return fmt.Errorf("core: RD cumulative arrays not finalized")
	}
	return nil
}

// String renders the RD compactly for diagnostics.
func (r *RD) String() string {
	if r.isImpulse() {
		return fmt.Sprintf("impulse(%g)", r.values[0])
	}
	s := "RD{"
	for i, v := range r.values {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%g:%.3f", v, r.probs[i])
	}
	return s + "}"
}
