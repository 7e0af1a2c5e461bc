package core

import (
	"fmt"
	"sort"

	"metaprobe/internal/stats"
)

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
// All the expected-correctness formulas below use exactly this order,
// which makes them exact (not approximate) under value ties. The trick
// is the lexicographic key κᵢ = (rᵢ, −i): beats(i, j) ⟺ κᵢ > κⱼ, and
// the events {κⱼ < K}, {κᵢ ≥ K} factor across independent databases.

// prKeyLess returns P(κ_j < K) for K = (v, pivot): j's key is below K
// when its value is below v, or equal with a larger index.
func prKeyLess(rd *RD, j int, v float64, pivot int) float64 {
	p := rd.prLess(v)
	if j > pivot {
		p += rd.prEq(v)
	}
	return p
}

// prKeyGE returns P(κ_i ≥ K) for K = (v, pivot).
func prKeyGE(rd *RD, i int, v float64, pivot int) float64 {
	p := rd.prGreater(v)
	if i <= pivot {
		p += rd.prEq(v)
	}
	return p
}

// prKeyGreater returns P(κ_i > K) for K = (v, pivot).
func prKeyGreater(rd *RD, i int, v float64, pivot int) float64 {
	p := rd.prGreater(v)
	if i < pivot {
		p += rd.prEq(v)
	}
	return p
}

// membershipProb returns P(dbᵢ ∈ DB_topk): the probability that at
// most k−1 other databases beat dbᵢ. Computed exactly by conditioning
// on dbᵢ's value and evaluating a Poisson-binomial tail over the
// independent "beats" events (Section 5.1's machinery).
func membershipProb(rds []*RD, i, k int) float64 {
	n := len(rds)
	if k >= n {
		return 1
	}
	if k <= 0 {
		return 0
	}
	total := 0.0
	beatProbs := make([]float64, 0, n-1)
	dp := make([]float64, k)
	for vi := 0; vi < rds[i].Len(); vi++ {
		v := rds[i].Value(vi)
		pv := rds[i].Prob(vi)
		beatProbs = beatProbs[:0]
		for j, rd := range rds {
			if j == i {
				continue
			}
			// P(beats(j, i) | rᵢ = v) = P(rⱼ > v) + [j < i]·P(rⱼ = v).
			p := rd.prGreater(v)
			if j < i {
				p += rd.prEq(v)
			}
			beatProbs = append(beatProbs, p)
		}
		total += pv * stats.PoissonBinomialAtMostInto(k-1, beatProbs, dp)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// expectedAbsolute returns E[Cor_a(set)] = P(set = DB_topk) (Eq. 5):
// the probability that every member of the set beats every non-member.
// In key space that is P(min_{i∈set} κᵢ > max_{j∉set} κⱼ), evaluated
// exactly by conditioning on the minimum key K over the set:
//
//	P = Σ_K [ Π_{i∈set} P(κᵢ ≥ K) − Π_{i∈set} P(κᵢ > K) ] · Π_{j∉set} P(κⱼ < K)
//
// where K ranges over the achievable keys (v, i) of set members.
func expectedAbsolute(rds []*RD, set []int) float64 {
	n := len(rds)
	if len(set) == 0 {
		return 0
	}
	if len(set) >= n {
		return 1
	}
	inSet := make([]bool, n)
	for _, i := range set {
		inSet[i] = true
	}
	total := 0.0
	for _, pivot := range set {
		for vi := 0; vi < rds[pivot].Len(); vi++ {
			v := rds[pivot].Value(vi)
			// P(min over the set = K), with K = (v, pivot).
			pGE, pGT := 1.0, 1.0
			for _, i := range set {
				pGE *= prKeyGE(rds[i], i, v, pivot)
				pGT *= prKeyGreater(rds[i], i, v, pivot)
			}
			pMinEq := pGE - pGT
			if pMinEq <= 0 {
				continue
			}
			// P(every non-member is below K).
			pBelow := 1.0
			for j := 0; j < n && pBelow > 0; j++ {
				if !inSet[j] {
					pBelow *= prKeyLess(rds[j], j, v, pivot)
				}
			}
			total += pMinEq * pBelow
		}
	}
	if total > 1 {
		total = 1
	}
	return total
}

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

// bestSet returns the k-set with the highest expected correctness and
// that expectation — the "DBᵏ with the highest E[Cor(DBᵏ)]" the
// RD-based method returns (Section 6.2) and APro's stopping quantity.
//
// For the partial metric the result is an exact argmax (E[Cor_p] is a
// sum of membership marginals, maximized by the top-k marginals). For
// the absolute metric subsets are enumerated exhaustively when C(n, k)
// is small and over the top marginal candidates otherwise.
func bestSet(metric Metric, rds []*RD, k int) ([]int, float64) {
	n := len(rds)
	if k <= 0 || n == 0 {
		return nil, 0
	}
	if k >= n {
		set := make([]int, n)
		for i := range set {
			set[i] = i
		}
		return set, 1
	}

	marginals := make([]float64, n)
	for i := range rds {
		marginals[i] = membershipProb(rds, i, k)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if marginals[order[a]] != marginals[order[b]] {
			return marginals[order[a]] > marginals[order[b]]
		}
		return order[a] < order[b]
	})

	if metric == Partial {
		set := append([]int(nil), order[:k]...)
		sort.Ints(set)
		total := 0.0
		for _, i := range set {
			total += marginals[i]
		}
		return set, total / float64(k)
	}

	// Absolute: enumerate candidate subsets.
	m := k + extraCandidates
	if m > n {
		m = n
	}
	if stats.BinomialCoefficient(n, k) <= exhaustiveLimit {
		m = n
	}
	candidates := order[:m]

	bestE := -1.0
	best := make([]int, k)
	set := make([]int, k)
	chosen := make([]int, k)
	// skipped is the first position of candidates the combination so far
	// leaves out (−1 while it is a gapless prefix).
	var recurse func(start, depth, skipped int)
	recurse = func(start, depth, skipped int) {
		if depth == k {
			copy(chosen, set)
			sort.Ints(chosen)
			e := expectedAbsolute(rds, chosen)
			if e > bestE {
				bestE = e
				copy(best, chosen)
			}
			return
		}
		for i := start; i <= len(candidates)-(k-depth); i++ {
			if skipped < 0 && i > depth {
				skipped = depth
			}
			// Two exact bounds. A correct set has every member in the
			// true top-k and every non-member outside it, so
			// E[Cor_a(S)] ≤ min_{i∈S} P(i ∈ topk) and
			// E[Cor_a(S)] ≤ 1 − max_{j∉S} P(j ∈ topk). Candidates are
			// ordered by decreasing marginal, so the best excluded
			// database is the first position skipped, and once either
			// bound cannot beat the incumbent the whole suffix at this
			// level goes with it. The slack guards the boundary against
			// floating-point rounding in the two sides of the compare.
			if bestE >= 0 && (marginals[candidates[i]]+pruneSlack <= bestE ||
				(skipped >= 0 && 1-marginals[candidates[skipped]]+pruneSlack <= bestE)) {
				break
			}
			set[depth] = candidates[i]
			recurse(i+1, depth+1, skipped)
		}
	}
	recurse(0, 0, -1)
	return best, bestE
}

// pruneSlack pads the marginal-bound prunes in the best-set search and
// in Greedy.Rank: the bounds are exact in real arithmetic, and the slack
// keeps float rounding from pruning a subset or a candidate that would
// have (numerically) won by an ulp.
const pruneSlack = 1e-12
