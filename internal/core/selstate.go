package core

import (
	"sync"

	"metaprobe/internal/stats"
)

// Selection scratch state: the incremental evaluation engine behind
// Selection.Best on the serving hot path.
//
// The from-scratch evaluation (BestSet/MembershipProb) rebuilds, for
// every membership marginal, a truncated Poisson-binomial DP over the
// "beats" probabilities of all other databases — O(n·bins²·k) per
// probe step, allocating fresh slices throughout. The scratch keeps
// all of that state flat and reusable:
//
//   - a key grid: every support value v of every database dbᵢ defines a
//     candidate key K = (v, i) in the paper's tie-breaking key order
//     κⱼ = (rⱼ, −j). For each key the grid stores P(κⱼ > K) and
//     P(κⱼ < K) for every database j, plus P(r_pivot = v).
//   - per-key DP rows: the truncated Poisson-binomial distribution of
//     "how many of the other databases beat the key owner", from which
//     membership marginals are per-key tails.
//
// A greedy-usefulness hypothesis ("suppose probing dbₕ yields w")
// collapses exactly one RD to an impulse, which perturbs exactly one
// factor of every DP row: column h of the grid becomes a step
// function, and each row's factor h swaps from p to p' ∈ {0, 1}. The
// swap is applied by deconvolving the old Bernoulli factor out of the
// cached row and convolving the new one in — O(k) per row instead of
// O(n·k) — falling back to an O(n·k) row rebuild when deconvolution
// would be numerically unsafe (see deconvMaxP). Either way the swapped
// row's tail depends on the key, on h and on p' but not on w, so it is
// computed once per (key, p') while h is the candidate (hypTail) and
// every support value of h reads it back. Keys of dbₕ whose value
// differs from w contribute exactly zero afterwards (their P(κ ≥ K)
// and P(κ > K) products coincide term by term), so the key grid itself
// never needs restructuring.
//
// Databases whose RD is already an impulse — probed ones, and the cold
// majority that was never observed — put a factor of exactly 0 or 1
// into every "all non-members are below K" product. ×1.0 is the
// identity and ×0 gives +0, so build records which databases are live
// and, per key, how many impulses are not below it (deadNeed); a set
// that leaves one of those out scores exactly 0 at that key, and every
// other product multiplies the live factors only, in the same
// ascending order.
//
// The base (no-hypothesis) tables replicate the reference arithmetic
// operation for operation — same factor order, same clamps, same early
// exits — so base results are bit-identical to BestSet; only
// hypothesis evaluations deviate, by deconvolution round-off far below
// the probEpsilon the policies compare with. The differential tests in
// incremental_test.go pin both paths together.

// deconvMaxP bounds the Bernoulli success probability up to which the
// one-factor deconvolution update is used: each deconvolution step
// divides by q = 1−p, amplifying round-off by (1/q) per DP cell, so
// with p ≤ 0.4 and k ≤ deconvMaxK the accumulated error stays below
// ~1e-12 — orders of magnitude inside the policies' probEpsilon.
// Larger factors rebuild the row from the cached grid instead.
const (
	deconvMaxP = 0.4
	deconvMaxK = 16
)

// tailUnset marks a hypTail entry not computed yet; a tail is a
// probability up to round-off, never −1.
const tailUnset = -1

// selScratch is the reusable state. It is owned by exactly one
// Selection at a time and returned to selScratchPool by
// Selection.Release; the pool makes steady-state selections
// allocation-free.
type selScratch struct {
	n, k int

	// Key grid, laid out db-major: keys of database i occupy
	// [keyStart[i], keyStart[i+1]); nK = keyStart[n] keys total.
	keyStart []int
	keyVal   []float64 // support value of each key
	keyEq    []float64 // P(r_owner = value) for each key
	gt       []float64 // [key t][db j] → P(κⱼ > K_t), row-major t*n+j
	less     []float64 // [key t][db j] → P(κⱼ < K_t)
	dp       []float64 // [key t][count c] → truncated PB DP row, t*k+c
	marg     []float64 // P(dbᵢ ∈ topk) per database
	valid    bool

	// Impulse bookkeeping: the non-impulse databases ascending, the same
	// as a per-database flag, and per key the number of impulse databases
	// j with less[t][j] == 0 — the ones a set must contain for the key to
	// contribute at all.
	live     []int
	isLive   []bool
	deadNeed []int

	// Hypothesis overlay (depth-1 greedy hypotheses only).
	hypActive  bool
	hypDB      int
	hypGTCol   []float64 // saved base column h of gt
	hypLessCol []float64 // saved base column h of less
	hypEqSave  []float64 // saved keyEq of h's keys
	hypMarg    []float64 // marginals under the hypothesis
	impulse    *RD       // reusable impulse RD for the rds swap
	// hypTail[2t+p'] is the tail of key t's DP row with factor tailDB
	// swapped to p' ∈ {0, 1}, or tailUnset. It is wiped when the
	// candidate changes and when the scratch is rebuilt.
	hypTail []float64
	tailDB  int

	// Best-set enumeration buffers.
	order    []int
	comboIdx []int
	combo    []int
	chosen   []int
	bestBuf  []int
	comboGap []int
	setMask  []bool // all false between expectedAbsolute calls
	pbRow    []float64
	// exhaustive reports that the last bestFrom enumerated every k-set,
	// so the E[Cor] it returned is a proven maximum; sets counts the
	// k-sets it scored.
	exhaustive bool
	sets       int

	// Greedy.Rank's working buffers: the informative candidates in index
	// order with their cost, usefulness upper bound, and — once swept —
	// raw usefulness and score; the order they are swept in; the best
	// scores seen so far; and the ranking handed back to the caller
	// (rankDBs/rankUs, valid until the next Rank).
	candIdx   []int
	candRaw   []float64
	candScore []float64
	candCost  []float64
	candBound []float64
	sweep     []int
	topScores []float64
	picked    []bool
	rankDBs   []int
	rankUs    []float64
}

var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

func acquireScratch() *selScratch {
	sc := selScratchPool.Get().(*selScratch)
	sc.valid = false
	sc.hypActive = false
	return sc
}

func (sc *selScratch) release() {
	sc.valid = false
	sc.hypActive = false
	selScratchPool.Put(sc)
}

// hypImpulse returns the scratch-owned impulse RD re-pointed at v. It
// backs the depth-1 hypothesis swap in Selection.rds so greedy
// usefulness sweeps allocate nothing; nested hypotheses allocate a
// regular Impulse instead.
func (sc *selScratch) hypImpulse(v float64) *RD {
	if sc.impulse == nil {
		sc.impulse = Impulse(v)
		return sc.impulse
	}
	sc.impulse.setImpulse(v)
	return sc.impulse
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// build rebuilds the full grid, DP rows and marginals from the
// selection's RDs. Called when the scratch is invalid (fresh scratch,
// or a probe collapsed an RD). Requires 0 < k < n.
func (sc *selScratch) build(rds []*RD, k int) {
	n := len(rds)
	sc.n, sc.k = n, k

	sc.keyStart = growInts(sc.keyStart, n+1)
	nK := 0
	for i, rd := range rds {
		sc.keyStart[i] = nK
		nK += rd.Len()
	}
	sc.keyStart[n] = nK

	sc.keyVal = growFloats(sc.keyVal, nK)
	sc.keyEq = growFloats(sc.keyEq, nK)
	sc.gt = growFloats(sc.gt, nK*n)
	sc.less = growFloats(sc.less, nK*n)
	sc.dp = growFloats(sc.dp, nK*k)
	sc.marg = growFloats(sc.marg, n)
	sc.hypGTCol = growFloats(sc.hypGTCol, nK)
	sc.hypLessCol = growFloats(sc.hypLessCol, nK)
	sc.hypMarg = growFloats(sc.hypMarg, n)
	sc.hypTail = growFloats(sc.hypTail, 2*nK)
	sc.tailDB = -1
	sc.pbRow = growFloats(sc.pbRow, k)
	sc.setMask = growBools(sc.setMask, n)
	sc.isLive = growBools(sc.isLive, n)
	sc.deadNeed = growInts(sc.deadNeed, nK)
	sc.live = growInts(sc.live, n)[:0]
	for j, rd := range rds {
		sc.isLive[j] = !rd.IsImpulse()
		if sc.isLive[j] {
			sc.live = append(sc.live, j)
		}
	}

	for i, rd := range rds {
		for vi := 0; vi < rd.Len(); vi++ {
			t := sc.keyStart[i] + vi
			v := rd.Value(vi)
			sc.keyVal[t] = v
			sc.keyEq[t] = rd.Prob(vi)
			gtRow := sc.gt[t*n : t*n+n]
			lessRow := sc.less[t*n : t*n+n]
			dead := 0
			for j, rdj := range rds {
				gtRow[j] = prKeyGreater(rdj, j, v, i)
				lessRow[j] = prKeyLess(rdj, j, v, i)
				if !sc.isLive[j] && lessRow[j] == 0 {
					dead++
				}
			}
			sc.deadNeed[t] = dead
		}
	}

	// DP rows and marginals, replicating MembershipProb exactly: for
	// key t of dbᵢ the row's factors are P(beats(j, i) | rᵢ = v) =
	// gt[t][j] over j ≠ i ascending, and the marginal is the
	// prob-weighted sum of row tails.
	for i := range rds {
		m := 0.0
		for t := sc.keyStart[i]; t < sc.keyStart[i+1]; t++ {
			row := sc.dp[t*k : t*k+k]
			sc.dpRowInto(row, sc.gt[t*n:t*n+n], i)
			m += sc.keyEq[t] * sumTail(row)
		}
		if m > 1 {
			m = 1
		}
		sc.marg[i] = m
	}
	sc.valid = true
}

// dpRowInto fills dst (length k) with the truncated Poisson-binomial
// DP over factors[j] for j ≠ skip — the same top-down update, factor
// order and per-factor clamping as stats.PoissonBinomialAtMost on the
// beat probabilities MembershipProb would gather.
func (sc *selScratch) dpRowInto(dst, factors []float64, skip int) {
	for c := range dst {
		dst[c] = 0
	}
	dst[0] = 1
	hi := len(dst) - 1
	for j, p := range factors {
		if j == skip {
			continue
		}
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		q := 1 - p
		for c := hi; c >= 1; c-- {
			dst[c] = dst[c]*q + dst[c-1]*p
		}
		dst[0] *= q
	}
}

// sumTail sums a DP row and clamps to 1 — the P(at most k−1 others
// beat the owner) tail, with PoissonBinomialAtMost's clamp.
func sumTail(row []float64) float64 {
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// deconvolveBernoulli writes into dst the DP row src with one
// Bernoulli(p) factor removed: inverting new[c] = old[c]·q + old[c−1]·p
// gives old[0] = new[0]/q, old[c] = (new[c] − old[c−1]·p)/q. Only used
// when p ≤ deconvMaxP, so q ≥ 0.6 bounds the error amplification.
func deconvolveBernoulli(dst, src []float64, p float64) {
	q := 1 - p
	dst[0] = src[0] / q
	for c := 1; c < len(src); c++ {
		dst[c] = (src[c] - dst[c-1]*p) / q
	}
}

// convolveBernoulli folds one Bernoulli(p) factor into a DP row in
// place (truncated at the row length).
func convolveBernoulli(row []float64, p float64) {
	q := 1 - p
	for c := len(row) - 1; c >= 1; c-- {
		row[c] = row[c]*q + row[c-1]*p
	}
	row[0] *= q
}

// beginHypothesis overlays "dbₕ's RD collapses to an impulse at its
// vi-th support value" onto the grid: column h becomes a step
// function, keyEq of h's keys becomes an indicator, and hypothesis
// marginals are derived from the cached DP rows by swapping the single
// changed factor. The base tables are saved and restored by
// endHypothesis; dp rows are never mutated.
func (sc *selScratch) beginHypothesis(h, vi int) {
	n, k := sc.n, sc.k
	hb, he := sc.keyStart[h], sc.keyStart[h+1]
	w := sc.keyVal[hb+vi]

	sc.hypEqSave = growFloats(sc.hypEqSave, he-hb)
	copy(sc.hypEqSave, sc.keyEq[hb:he])
	for i := 0; i < n; i++ {
		for t := sc.keyStart[i]; t < sc.keyStart[i+1]; t++ {
			sc.hypGTCol[t] = sc.gt[t*n+h]
			sc.hypLessCol[t] = sc.less[t*n+h]
			v := sc.keyVal[t]
			// Impulse at w against key K = (v, i): P(κₕ > K) and
			// P(κₕ < K) are indicators with the index tie-break.
			var g, l float64
			if w > v || (w == v && h < i) {
				g = 1
			}
			if w < v || (w == v && h > i) {
				l = 1
			}
			sc.gt[t*n+h] = g
			sc.less[t*n+h] = l
		}
	}
	for t := hb; t < he; t++ {
		sc.keyEq[t] = 0
	}
	sc.keyEq[hb+vi] = 1

	// Hypothesis marginals. dbₕ's own rows exclude factor h, so its
	// marginal is the tail at the hypothesized key directly; every
	// other database swaps exactly the h factor of each row, and the
	// swapped tail is shared by every support value of h that puts the
	// same p' there.
	if sc.tailDB != h {
		tails := sc.hypTail[:2*sc.keyStart[n]]
		for x := range tails {
			tails[x] = tailUnset
		}
		sc.tailDB = h
	}
	for i := 0; i < n; i++ {
		if i == h {
			sc.hypMarg[h] = sumTail(sc.dp[(hb+vi)*k : (hb+vi)*k+k])
			continue
		}
		m := 0.0
		for t := sc.keyStart[i]; t < sc.keyStart[i+1]; t++ {
			newP := sc.gt[t*n+h]
			memo := &sc.hypTail[2*t+int(newP)]
			if *memo == tailUnset {
				*memo = sc.swappedTail(t, i, sc.hypGTCol[t], newP)
			}
			m += sc.keyEq[t] * *memo
		}
		if m > 1 {
			m = 1
		}
		sc.hypMarg[i] = m
	}

	sc.hypDB = h
	sc.hypActive = true
}

// swappedTail returns the tail of key t's DP row (owner i ≠ h) with
// factor h swapped from its base value oldP to newP ∈ {0, 1}; the h
// column of the grid already holds the overlay.
func (sc *selScratch) swappedTail(t, i int, oldP, newP float64) float64 {
	n, k := sc.n, sc.k
	if oldP < 0 {
		oldP = 0
	} else if oldP > 1 {
		oldP = 1
	}
	switch {
	case oldP == newP:
		return sumTail(sc.dp[t*k : t*k+k])
	case oldP <= deconvMaxP && k <= deconvMaxK:
		deconvolveBernoulli(sc.pbRow, sc.dp[t*k:t*k+k], oldP)
		convolveBernoulli(sc.pbRow, newP)
	default:
		sc.dpRowInto(sc.pbRow, sc.gt[t*n:t*n+n], i)
	}
	return sumTail(sc.pbRow)
}

// endHypothesis restores the base grid saved by beginHypothesis.
func (sc *selScratch) endHypothesis() {
	n := sc.n
	h := sc.hypDB
	hb, he := sc.keyStart[h], sc.keyStart[h+1]
	for t := 0; t < sc.keyStart[n]; t++ {
		sc.gt[t*n+h] = sc.hypGTCol[t]
		sc.less[t*n+h] = sc.hypLessCol[t]
	}
	copy(sc.keyEq[hb:he], sc.hypEqSave)
	sc.hypActive = false
}

// expectedAbsolute evaluates E[Cor_a(set)] from the grid (base or
// hypothesis overlay), mirroring ExpectedAbsolute's conditioning on
// the set's minimum key: identical factor order, clamps and early
// exits, minus the impulse factors that are exactly 1 and the keys an
// impulse factor of exactly 0 wipes out. set must be ascending.
func (sc *selScratch) expectedAbsolute(set []int) float64 {
	n := sc.n
	mask := sc.setMask
	for _, i := range set {
		mask[i] = true
	}
	total := 0.0
	for _, pivot := range set {
		for t := sc.keyStart[pivot]; t < sc.keyStart[pivot+1]; t++ {
			lessRow := sc.less[t*n : t*n+n]
			// An impulse outside the set that is not below K makes the
			// non-member product exactly 0: the key adds nothing.
			if need := sc.deadNeed[t]; need > 0 {
				for _, i := range set {
					if !sc.isLive[i] && lessRow[i] == 0 {
						need--
					}
				}
				if need > 0 {
					continue
				}
			}
			gtRow := sc.gt[t*n : t*n+n]
			eq := sc.keyEq[t]
			// P(min over the set = K): Π P(κᵢ ≥ K) − Π P(κᵢ > K). The
			// two factors differ only at the pivot, by P(r_pivot = v).
			pGE, pGT := 1.0, 1.0
			for _, i := range set {
				f := gtRow[i]
				pGT *= f
				if i == pivot {
					f += eq
				}
				pGE *= f
			}
			pMinEq := pGE - pGT
			if pMinEq <= 0 {
				continue
			}
			// Every remaining impulse factor is exactly 1; multiply the
			// live non-members only.
			pBelow := 1.0
			for _, j := range sc.live {
				if pBelow <= 0 {
					break
				}
				if !mask[j] {
					pBelow *= lessRow[j]
				}
			}
			total += pMinEq * pBelow
		}
	}
	for _, i := range set {
		mask[i] = false
	}
	if total > 1 {
		total = 1
	}
	return total
}

// bestFrom runs BestSet's search over the scratch tables (base, or the
// hypothesis overlay when one is active), without allocating: the
// returned set lives in sc.bestBuf and is valid until the next call.
// Requires 0 < k < n. The candidate ordering, enumeration order,
// pruning and tie-breaking replicate BestSet exactly.
func (sc *selScratch) bestFrom(metric Metric, opts BestSetOptions) ([]int, float64) {
	opts.setDefaults()
	n, k := sc.n, sc.k
	marg := sc.marg
	if sc.hypActive {
		marg = sc.hypMarg
	}
	sc.sets = 0

	order := growInts(sc.order, n)
	for i := range order {
		order[i] = i
	}
	sc.order = order
	insertionSortByDesc(order, marg)

	sc.bestBuf = growInts(sc.bestBuf, k)
	if metric == Partial {
		set := sc.bestBuf
		copy(set, order[:k])
		insertionSortInts(set)
		total := 0.0
		for _, i := range set {
			total += marg[i]
		}
		return set, total / float64(k)
	}

	m := k + opts.ExtraCandidates
	if m > n {
		m = n
	}
	if stats.BinomialCoefficient(n, k) <= float64(opts.ExhaustiveLimit) {
		m = n
	}
	sc.exhaustive = m == n
	candidates := order[:m]

	sc.comboIdx = growInts(sc.comboIdx, k)
	sc.comboGap = growInts(sc.comboGap, k)
	sc.combo = growInts(sc.combo, k)
	sc.chosen = growInts(sc.chosen, k)

	// Iterative combination enumeration — the same visit order as
	// BestSet's recursion (idx[d] is the loop variable at depth d, gap[d]
	// its skipped argument), with the same two marginal-bound prunes,
	// kept loop-shaped so the hot path allocates no closures.
	bestE := -1.0
	idx, gap := sc.comboIdx, sc.comboGap
	depth := 0
	idx[0], gap[0] = 0, -1
	for depth >= 0 {
		i := idx[depth]
		skipped := gap[depth]
		if skipped < 0 && i > depth {
			skipped = depth
		}
		if i > len(candidates)-(k-depth) ||
			(bestE >= 0 && (marg[candidates[i]]+pruneSlack <= bestE ||
				(skipped >= 0 && 1-marg[candidates[skipped]]+pruneSlack <= bestE))) {
			depth--
			if depth >= 0 {
				idx[depth]++
			}
			continue
		}
		sc.combo[depth] = candidates[i]
		if depth == k-1 {
			copy(sc.chosen, sc.combo)
			insertionSortInts(sc.chosen)
			sc.sets++
			e := sc.expectedAbsolute(sc.chosen)
			if e > bestE {
				bestE = e
				copy(sc.bestBuf, sc.chosen)
			}
			idx[depth]++
			continue
		}
		depth++
		idx[depth], gap[depth] = i+1, skipped
	}
	return sc.bestBuf, bestE
}

// insertionSortByDesc stably sorts order by score descending (ties
// keep ascending-index order) — the same result as BestSet's stable
// sort, without sort.SliceStable's closure allocation.
func insertionSortByDesc(order []int, score []float64) {
	for i := 1; i < len(order); i++ {
		x := order[i]
		j := i - 1
		for j >= 0 && score[order[j]] < score[x] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = x
	}
}

// insertionSortInts sorts a small int slice ascending in place.
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}
