package core

import "fmt"

// Metric selects the correctness definition of Section 3.2.
type Metric int

const (
	// Absolute correctness (Eq. 3): DBᵏ is correct only when it equals
	// the true top-k set exactly.
	Absolute Metric = iota
	// Partial correctness (Eq. 4): credit |DBᵏ ∩ DB_topk| / k.
	Partial
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Absolute:
		return "absolute"
	case Partial:
		return "partial"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Tie-breaking. The golden standard ranks databases by (relevancy
// descending, index ascending), so "dbᵢ beats dbⱼ" is the strict total
// order
//
//	beats(i, j) ⟺ rᵢ > rⱼ ∨ (rᵢ = rⱼ ∧ i < j).
//
// Every expected-correctness formula (selstate.go) uses exactly this
// order, which makes them exact (not approximate) under value ties. The
// trick is the lexicographic key κᵢ = (rᵢ, −i): beats(i, j) ⟺ κᵢ > κⱼ,
// and the events {κⱼ < K}, {κᵢ ≥ K} factor across independent databases.
// P(dbᵢ ∈ DB_topk) conditions on dbᵢ's value: at most k−1 of the others
// beat it, a Poisson-binomial tail (Section 5.1). E[Cor_a(S)] =
// P(S = DB_topk) (Eq. 5) conditions on the minimum key K over S:
//
//	P = Σ_K [ Π_{i∈S} P(κᵢ ≥ K) − Π_{i∈S} P(κᵢ > K) ] · Π_{j∉S} P(κⱼ < K)
//
// with K ranging over the keys (v, i) of S's members. E[Cor_p(S)]
// (Eq. 6) is the mean of S's membership marginals, so its best set is
// the top-k marginals.

// The argmax search for the absolute metric.
const (
	// extraCandidates widens the candidate pool beyond k when
	// maximizing E[Cor_a]: subsets are enumerated over the k +
	// extraCandidates databases with the highest membership probability.
	extraCandidates = 8
	// exhaustiveLimit enumerates all C(n, k) subsets when their count is
	// at most this limit, making the search exact on small testbeds.
	exhaustiveLimit = 2000
)

// pruneSlack pads the bound prunes in the best-set search and in
// Greedy.Rank: the bounds are exact in real arithmetic, and the slack
// keeps float rounding from pruning a subset or a candidate that would
// have (numerically) won by an ulp. The residual-mass bound's identity
// holds to 8.9e-16 (TestSetMassPartitionsMarginals), three orders under
// it.
const pruneSlack = 1e-12
