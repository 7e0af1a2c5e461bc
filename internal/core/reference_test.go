package core

import (
	"fmt"
	"slices"
	"sort"

	"metaprobe/internal/stats"
)

// The from-scratch computations the engine's fast paths replace, kept as
// the references those paths are diffed against:
//
//   - the RD derivation a ModelVersion's RD table replaces: every
//     selection ModelVersion.FillSelection builds must equal, bit for
//     bit, the one newSelection derives by convolving the EDs per query;
//   - the evaluation the selection scratch (selstate.go) replaces:
//     membershipProb, expectedAbsolute and bestSet recompute every
//     marginal, every E[Cor_a] and the best-set search from the RDs
//     alone, allocating as they go, and refUsefulness, refRank and
//     refAPro run the greedy policy and the APro loop on them. The
//     scratch replicates their arithmetic operation for operation, so
//     the base state's results are their bits.

// rd derives the relevancy distribution for a new query with estimate
// rhat (Section 3.1, Example 3): each occupied bin contributes its
// probability at value r̂·(1 + e_bin) — or at the bin's absolute value
// for the zero band. Values are floored at 0 (relevancies cannot be
// negative).
func (e *ED) rd(rhat float64) (*RD, error) {
	f := e.freeze()
	return f.rd(rhat, f.reps) // in place: the snapshot is this call's own
}

// rdFor derives the relevancy distribution of database dbIdx for an
// unseen query: estimate, classify, apply the learned ED (falling back
// to the pooled ED, then to an impulse at the estimate when the
// database was never observed in a comparable regime).
func (m *Model) rdFor(dbIdx int, query string, numTerms int) (*RD, float64) {
	sum := m.Summaries.Summaries[dbIdx]
	rhat := m.Rel.Estimate(sum, query)
	if rhat != rhat {
		rhat = 0 // as the fill serves it
	}
	key := m.Cfg.Classifier.Classify(numTerms, rhat)
	dm := m.DBs[dbIdx]

	if ed, ok := dm.EDs[key]; ok && ed.Observations() >= m.Cfg.MinObservations {
		if rd, err := ed.rd(rhat); err == nil {
			return rd, rhat
		}
	}
	if key.Band != BandZero && dm.Pooled.Observations() >= m.Cfg.MinObservations {
		if rd, err := dm.Pooled.rd(rhat); err == nil {
			return rd, rhat
		}
	}
	// No usable error model: trust the estimate outright, sharing the
	// read-only impulse at 0 as the table does.
	if rhat == 0 {
		return zeroImpulse, rhat
	}
	return Impulse(rhat), rhat
}

// newSelection builds the initial (unprobed) state for a query from
// rdFor: no table, no memo.
func (m *Model) newSelection(query string, numTerms int, metric Metric, k int) *Selection {
	n := len(m.DBs)
	s := &Selection{
		metric:        metric,
		k:             k,
		query:         query,
		rds:           make([]*RD, n),
		estimates:     make([]float64, n),
		probed:        make([]bool, n),
		unprobedStale: true,
	}
	for i := 0; i < n; i++ {
		s.rds[i], s.estimates[i] = m.rdFor(i, query, numTerms)
	}
	return s
}

// observeProbe is observe for tests that need only the error.
func (m *Model) observeProbe(dbIdx int, query string, numTerms int, actual float64) error {
	_, _, err := m.observe(dbIdx, query, numTerms, actual)
	return err
}

// expectedPartial returns E[Cor_p(set)] (Eq. 6): the expected fraction
// of the set that belongs to the true top-k. Because
// Cor_p = |set ∩ topk|/k = Σ_{i∈set} 1{i ∈ topk} / k, the expectation
// is the mean of exact membership probabilities.
func expectedPartial(rds []*RD, set []int) float64 {
	if len(set) == 0 {
		return 0
	}
	k := len(set)
	total := 0.0
	for _, i := range set {
		total += membershipProb(rds, i, k)
	}
	return total / float64(k)
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

// prKeyLess returns P(κ_j < K) for K = (v, pivot): j's key is below K
// when its value is below v, or equal with a larger index. The scratch's
// column walks (fillColumn) write the same values into the grid.
func prKeyLess(rd *RD, j int, v float64, pivot int) float64 {
	p := rd.prLess(v)
	if j > pivot {
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
		total += pv * poissonBinomialAtMostInto(k-1, beatProbs, dp)
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
			// P(min over the set = K), with K = (v, pivot): the two
			// products differ at the pivot only, by P(r_pivot = v).
			pGE, pGT := 1.0, 1.0
			for _, i := range set {
				f := prKeyGreater(rds[i], i, v, pivot)
				pGT *= f
				if i == pivot {
					f += rds[i].Prob(vi)
				}
				pGE *= f
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

// bestSet returns the k-set with the highest expected correctness and
// that expectation — the "DBᵏ with the highest E[Cor(DBᵏ)]" the
// RD-based method returns (Section 6.2) and APro's stopping quantity.
//
// For the partial metric the result is an exact argmax (E[Cor_p] is a
// sum of membership marginals, maximized by the top-k marginals). For
// the absolute metric subsets are enumerated exhaustively when C(n, k)
// is small and over the top marginal candidates otherwise.
func bestSet(metric Metric, rds []*RD, k int) ([]int, float64) {
	set, e, _ := searchSets(metric, rds, k, false)
	return set, e
}

// searchSets is bestSet that also returns how many k-sets it scored.
// With mass it prunes by the third bound as well, the residual of each
// member's marginal: the pruning the engine's search does, so that its
// count is the engine's.
func searchSets(metric Metric, rds []*RD, k int, mass bool) ([]int, float64, int) {
	n := len(rds)
	if k <= 0 || n == 0 {
		return nil, 0, 0
	}
	if k >= n {
		set := make([]int, n)
		for i := range set {
			set[i] = i
		}
		return set, 1, 0
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
		return set, total / float64(k), 1
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

	resid := slices.Clone(marginals)
	sets := 0
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
			sets++
			for _, i := range chosen {
				resid[i] -= e
			}
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
			// The third bound: every k-set's E[Cor_a] sums to 1 and those
			// containing i to P(i ∈ topk), so a set not scored yet is at
			// most the least residual among its members.
			if mass {
				r := resid[candidates[i]]
				for _, c := range set[:depth] {
					r = min(r, resid[c])
				}
				if r+pruneSlack <= bestE {
					continue
				}
			}
			recurse(i+1, depth+1, skipped)
		}
	}
	recurse(0, 0, -1)
	return best, bestE, sets
}

// poissonBinomialAtMostInto returns P(X ≤ k) where X is the number of
// successes among independent Bernoulli trials with the given success
// probabilities (the Poisson-binomial distribution): the truncated
// O(n·k) DP membershipProb runs per support value, which
// selScratch.dpRowInto and sumTail replicate. It tracks counts up to k
// only (everything above k is irrelevant to the tail) in dp, a buffer of
// length ≥ k+1 that it overwrites.
func poissonBinomialAtMostInto(k int, probs, dp []float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(probs) {
		return 1
	}
	dp = dp[:k+1]
	for j := range dp {
		dp[j] = 0
	}
	dp[0] = 1
	for _, p := range probs {
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		q := 1 - p
		for j := k; j >= 1; j-- {
			dp[j] = dp[j]*q + dp[j-1]*p
		}
		dp[0] *= q
	}
	sum := 0.0
	for _, v := range dp {
		sum += v
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// refBest is bestSet on s's current RDs.
func refBest(s *Selection) ([]int, float64) { return bestSet(s.metric, s.rds, s.k) }

// refUsefulness is Greedy.usefulness on the reference: each outcome of
// probing database i is s's RDs with rds[i] swapped for an impulse at the
// outcome's value, searched by bestSet.
func refUsefulness(s *Selection, i int) float64 {
	rds := append([]*RD(nil), s.rds...)
	rd := rds[i]
	u := 0.0
	for vi := 0; vi < rd.Len(); vi++ {
		rds[i] = Impulse(rd.Value(vi))
		_, e := bestSet(s.metric, rds, s.k)
		u += rd.Prob(vi) * e
	}
	return u
}

// refRank is Greedy{}.Rank on the reference: every informative unprobed
// candidate is swept and scored by refUsefulness, and the first m are
// picked with Rank's comparison rule — a score above an epsilon margin
// wins, remaining ties go to the lower index (all probes cost the same).
func refRank(s *Selection, m int) ([]int, []float64, error) {
	unprobed := s.UnprobedView()
	if len(unprobed) == 0 {
		return nil, nil, fmt.Errorf("no unprobed database left")
	}
	var cand []int
	var us []float64
	for _, i := range unprobed {
		if !s.rds[i].isImpulse() {
			cand = append(cand, i)
			us = append(us, refUsefulness(s, i))
		}
	}
	if len(cand) == 0 {
		return nil, nil, ErrNoInformativeProbe
	}
	if m <= 0 || m > len(cand) {
		m = len(cand)
	}
	picked := make([]bool, len(cand))
	var dbs []int
	var raw []float64
	for len(dbs) < m {
		best := -1
		for ci := range cand {
			if !picked[ci] && (best < 0 || us[ci] > us[best]+probEpsilon) {
				best = ci
			}
		}
		picked[best] = true
		dbs, raw = append(dbs, cand[best]), append(raw, us[best])
	}
	return dbs, raw, nil
}

// refGreedy is a Ranker that ranks with refRank.
type refGreedy struct{}

func (refGreedy) Rank(s *Selection, _ float64, m int) ([]int, []float64, error) {
	return refRank(s, m)
}

// refAPro is the APro loop on the reference, probing inline through probe
// with no probe budget: best sets by bestSet, each step's database and
// usefulness by refRank. It probes s, which needs no scratch.
func refAPro(s *Selection, probe func(int) float64, t float64) (Outcome, error) {
	var out Outcome
	for {
		set, e := refBest(s)
		out.Set, out.Certainty = set, e
		if n := len(out.Steps); n > 0 {
			out.Steps[n-1].CertaintyAfter = e
		} else {
			out.Initial = e
		}
		if e >= t {
			out.Reached = true
			return out, nil
		}
		if len(s.UnprobedView()) == 0 {
			return out, nil
		}
		dbs, us, err := refRank(s, 1)
		if err == ErrNoInformativeProbe {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		v := probe(dbs[0])
		s.ApplyProbe(dbs[0], v)
		out.Steps = append(out.Steps, ProbeStep{DB: dbs[0], Value: v, Usefulness: us[0]})
	}
}
