package core

import (
	"slices"
	"sync"

	"metaprobe/internal/stats"
)

// Selection scratch state: the one evaluation engine behind
// Selection.Best, Selection.Marginals and the greedy usefulness. Every
// state is evaluated here — the loop's, a one-probe hypothesis of it
// (Selection.bestIf), and the shells that the lookahead and the optimal
// policy build for states further on — unless k ≤ 0 or k ≥ n, which
// need no search.
//
// Evaluated from scratch (the reference the tests keep in
// reference_test.go), every membership marginal rebuilds a truncated
// Poisson-binomial DP over the "beats" probabilities of all other
// databases — O(n·bins²·k) per probe step, allocating fresh slices
// throughout. The scratch keeps all of that state flat and reusable:
//
//   - a key grid: every support value v of every database dbᵢ defines a
//     candidate key K = (v, i) in the paper's tie-breaking key order
//     κⱼ = (rⱼ, −j). For each key the grid stores P(κⱼ > K) and
//     P(κⱼ < K) for every database j, plus P(r_pivot = v). i's keys
//     ascend, so column j of them is one walk up j's support
//     (fillColumn).
//   - per-key DP rows: the truncated Poisson-binomial distribution of
//     "how many of the other databases beat the key owner", from which
//     membership marginals are per-key tails.
//
// A greedy-usefulness hypothesis ("suppose probing dbₕ yields w")
// collapses exactly one RD to an impulse, and the grid is never touched
// for it. In every DP row factor h becomes p' ∈ {0, 1}, and a 0/1 factor
// acts on the truncated DP without rounding (0 is the identity, 1 a
// one-cell shift that commutes with every other factor), so the row
// without factor h (see swappedTails) gives both swapped tails at once;
// they depend on the key and on h but not on w, so they are computed
// once while h is the candidate (hypTail). In E[Cor_a(S)] the hypothesis
// puts a factor of exactly 0 or 1 into every per-key term: with h's own
// factor left out the term depends on (h, S, key) only, and w decides
// whether it counts. Those terms are kept per (candidate, set) in the
// term cache, and a hypothesis sums, in the same left-to-right order,
// the ones its w lets through (hypExpected).
//
// A probe does the same to the real state, so the next evaluation
// recomputes that database's column and keys (collapse), keeps the rest
// of the grid, and redoes the DP rows and marginals, which every factor
// enters, in full.
//
// Databases whose RD is already an impulse — probed ones, and the cold
// majority that was never observed — put a factor of exactly 0 or 1
// into every "all non-members are below K" product. ×1.0 is the
// identity and ×0 gives +0, so build records which databases are live
// and, per key, how many impulses are not below it (deadNeed); a set
// that leaves one of those out scores exactly 0 at that key, and every
// other product multiplies the live factors only, in the same
// ascending order. Both lists a key's term reads — the live databases
// outside the set and the set's impulses — are made once per set scored
// (listSet), not per key. The DP rows do the same: an impulse's factor there
// is exactly 0, the identity, or exactly 1, a one-cell shift that
// commutes with every other factor, so a row multiplies the live
// factors and is then shifted once per impulse above its key
// (deadAbove). Both rest on newRD making every impulse exact.
//
// The base (no-hypothesis) tables replicate the from-scratch arithmetic
// operation for operation — same factor order, same clamps, same early
// exits — so base results are bit-identical to the reference's, and so
// is the E[Cor] of any one set under a hypothesis; only a hypothesis's
// marginals deviate, by deconvolution round-off far below the
// probEpsilon the policies compare with. The differential tests in
// incremental_test.go pin the two together.
//
// Coherence. Four caches stand between a selection and that
// evaluation, each with one rule, and the grid's impulse counts have a
// rule of their own; the test named after each fails without it. No value
// a selection holds is NaN (answers pass CheckAnswer where they enter, the
// fill serves a NaN estimate as 0), so the key order is total and Eq. 5,
// which bestFrom's third bound rests on, holds.
// TestInvalidAnswerIsAFailedProbe, TestFillServesNaNEstimateAsZero.
//
//   - The grid and the term arena (this file) describe the selection's
//     current RDs, and the kept tails and terms one candidate of them:
//     every write to Selection.rds marks the grid stale (ApplyProbe hands
//     collapse the one live database it changed; reset and Reuse
//     invalidate, or copy a current grid), and a grid built or repaired
//     (finish) or a new candidate (beginHypothesis) voids hypTail and the
//     term arena. TestIncrementalMatchesReference.
//   - The live list, deadNeed and deadAbove describe the grid's impulses:
//     fillKeys counts a key's, collapse moves the probed database out of
//     the live list and into both counts of every other key, and copyGrid
//     copies all three, so that a DP row over the live factors, shifted
//     deadAbove cells, is the row over every factor.
//     TestGridAfterProbeMatchesFreshBuild, TestLiveRowsMatchAllFactors.
//   - The base answer (baseDone, baseE and bestBuf) is the current
//     state's best set only while the scratch's last search was that
//     state's base search: bestFrom clears it before every search and
//     keeps its answer after one with no hypothesis armed, and finish,
//     copyGrid and invalidate clear it with the grid. Selection.evaluate
//     returns it in place of a search, so Rank's evaluation after the
//     loop's BestView of the same state scores no set. TestBaseSearchReuse.
//   - The RD-table rows (rdtable.go) are immutable and lag their EDs by
//     less than one epoch: refinement marks rows dirty, and every
//     epochObservations observations, and before Next, publishRows
//     builds the dirty rows anew and stores them through the rows'
//     atomic pointers. TestObserveProbeRebuildsRDTable.
//   - The memo slot (memo.go) holds the tree of decisions made from the
//     rows in place: publishRows stores nil in it before the rows and a
//     fresh tree after, and FillSelection attaches only when the slot
//     holds, after its last row read, the tree it held before its first.
//     TestDecisionMemoFillStraddlesEpoch.

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

// The term cache is bounded by two constants; past either a term vector
// is computed into a temporary and not kept — same arithmetic, shared
// less. maxTermSets: the index table has one 8-byte slot per k-set,
// addressed by the set's combinatorial rank, so at most 4 096 × 8 B =
// 32 KiB (C(20, 3) = 1 140 sets on the health testbed); a larger C(n, k)
// gets no table. maxTermFloats: the arena holds at most 32 768 floats =
// 256 KiB per scratch; the high-water mark over the benchmark's 6 000
// cpu-select queries is 8 184 floats (64 KiB).
const (
	maxTermSets   = 4096
	maxTermFloats = 1 << 15
)

// termSlot says where in the arena a set's term vector starts; it is
// there only when epoch is the scratch's current termEpoch.
type termSlot struct{ epoch, off uint32 }

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
	// collapsed ≥ 0 on a stale scratch names the one database whose RD
	// became an impulse since the grid was built (see collapse).
	collapsed int

	// Impulse bookkeeping: the non-impulse databases ascending, the same
	// as a per-database flag, and per key the number of impulse databases
	// j with less[t][j] == 0 — the ones a set must contain for the key to
	// contribute at all — and the number with gt[t][j] == 1, each a
	// one-cell shift of the key's DP row.
	live      []int
	isLive    []bool
	deadNeed  []int
	deadAbove []int

	// The active hypothesis "dbₕ = w" (Selection.bestIf), whose h is
	// the candidate tailDB: the key (w, h), and per database i ≠ h where
	// w falls among i's keys — κₕ > K for the keys [keyStart[i],
	// hypGTEnd[i]) and κₕ < K for the rest, as fillColumn writes them.
	hypActive bool
	hypKey    int
	hypGTEnd  []int
	hypMarg   []float64 // marginals under the hypothesis
	// resid[i] is what of database i's marginal the sets bestFrom has
	// scored leave unclaimed; it shares hypMarg's allocation.
	resid []float64
	// hypTail[2t+p'] is the tail of key t's DP row with factor tailDB
	// swapped to p' ∈ {0, 1}, or tailUnset. It is wiped when the
	// candidate changes and when the scratch is rebuilt.
	hypTail []float64
	tailDB  int

	// Term cache of the candidate tailDB: termSlots by combinatorial rank
	// (choose[d*n+c] = C(c, d+1); both empty when C(n, k) > maxTermSets),
	// vectors in termArena, termTmp for one that is not kept. A new
	// candidate or a rebuild starts a new termEpoch with an empty arena.
	// shared counts the last bestFrom's scorings that found their vector.
	choose    []int
	termSlots []termSlot
	termEpoch uint32
	termArena []float64
	termTmp   []float64
	shared    int

	// Best-set enumeration buffers; pool is how many of the top-marginal
	// candidates the absolute search enumerates over (all n: the search
	// is exhaustive), 0 until decided for this (n, k).
	pool     int
	order    []int
	comboIdx []int
	combo    []int
	chosen   []int
	bestBuf  []int
	comboGap []int
	pbRow    []float64
	// exhaustive reports that the last bestFrom enumerated every k-set,
	// so the E[Cor] it returned is a proven maximum; sets counts the
	// k-sets it scored.
	exhaustive bool
	sets       int
	// rows counts the DP rows built since the selection last took the
	// counts (Selection.countRows), rowLive the live databases each
	// row's build found, and tailRebuilds and tailDeconvs the swapped
	// tails that took a row rebuild and a deconvolution.
	rows, rowLive, tailRebuilds, tailDeconvs int
	// baseDone reports that the last bestFrom searched the base state of
	// the current grid, with bestBuf and baseE its answer; order,
	// exhaustive and marg are then that search's too. Any other search,
	// a rebuild, a repair or a copied grid clears it.
	baseDone bool
	baseE    float64
	// The set being scored (listSet): the live databases outside it and
	// outside the candidate, ascending, and its impulse members, both
	// kept in lists (n + k long).
	others  []int
	members []int
	lists   []int

	// Greedy.Rank's working buffers: the informative candidates in index
	// order with their cost, usefulness upper bound, and — once swept —
	// raw usefulness and score; the order they are swept in; the best
	// scores seen so far; and the ranking handed back to the caller
	// (rankDBs/rankUs, valid until the next Rank). For the candidate being
	// swept under the bound: each support value's cap, its E once
	// evaluated, the values in sweep order and the caps still unswept
	// after each (valRest[x] sums the terms from position x on).
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
	valCap    []float64
	valE      []float64
	valOrder  []int
	valRest   []float64
}

var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

func acquireScratch() *selScratch {
	sc := selScratchPool.Get().(*selScratch)
	sc.invalidate()
	return sc
}

func (sc *selScratch) release() {
	sc.invalidate()
	sc.rows, sc.rowLive, sc.tailRebuilds, sc.tailDeconvs = 0, 0, 0, 0
	selScratchPool.Put(sc)
}

// invalidate marks the whole scratch stale.
func (sc *selScratch) invalidate() {
	sc.valid, sc.collapsed, sc.baseDone = false, -1, false
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
// selection's RDs. Called when the scratch is stale beyond what collapse
// repairs (fresh scratch, a refill, two probes). Requires 0 < k < n.
func (sc *selScratch) build(rds []*RD, k int) {
	n := len(rds)
	sc.keyStart = growInts(sc.keyStart, n+1)
	nK := 0
	for i, rd := range rds {
		sc.keyStart[i] = nK
		nK += rd.Len()
	}
	sc.keyStart[n] = nK
	sc.size(n, k, nK)

	sc.live = sc.live[:0]
	for j, rd := range rds {
		sc.isLive[j] = !rd.isImpulse()
		if sc.isLive[j] {
			sc.live = append(sc.live, j)
		}
	}

	for i := range rds {
		sc.fillKeys(rds, i)
	}
	sc.finish()
}

// copyGrid makes sc the valid grid of src, which must be valid: the
// keys, their rows of gt and less, the DP rows, the marginals and the
// live list — everything build would compute from the same RDs — with
// nothing kept for a candidate.
func (sc *selScratch) copyGrid(src *selScratch) {
	n, nK := src.n, src.keyStart[src.n]
	sc.keyStart = append(sc.keyStart[:0], src.keyStart[:n+1]...)
	sc.size(n, src.k, nK)
	copy(sc.keyVal, src.keyVal[:nK])
	copy(sc.keyEq, src.keyEq[:nK])
	copy(sc.gt, src.gt[:nK*n])
	copy(sc.less, src.less[:nK*n])
	copy(sc.dp, src.dp[:nK*src.k])
	copy(sc.marg, src.marg[:n])
	copy(sc.isLive, src.isLive[:n])
	copy(sc.deadNeed, src.deadNeed[:nK])
	copy(sc.deadAbove, src.deadAbove[:nK])
	sc.live = append(sc.live[:0], src.live...)
	sc.tailDB = -1
	sc.valid, sc.collapsed, sc.baseDone = true, -1, false
}

// size sets sc up for n databases, k and nK keys: the term table when n
// or k changed, and every per-key and per-database buffer at its length.
func (sc *selScratch) size(n, k, nK int) {
	if n != sc.n || k != sc.k {
		sc.n, sc.k, sc.pool = n, k, 0
		sc.sizeTermTable()
	}
	sc.keyVal = growFloats(sc.keyVal, nK)
	sc.keyEq = growFloats(sc.keyEq, nK)
	sc.gt = growFloats(sc.gt, nK*n)
	sc.less = growFloats(sc.less, nK*n)
	sc.dp = growFloats(sc.dp, nK*k)
	sc.marg = growFloats(sc.marg, n)
	sc.hypGTEnd = growInts(sc.hypGTEnd, n)
	margs := growFloats(sc.hypMarg, 2*n)
	sc.hypMarg, sc.resid = margs[:n], margs[n:]
	sc.hypTail = growFloats(sc.hypTail, 2*nK)
	sc.pbRow = growFloats(sc.pbRow, k)
	sc.lists = growInts(sc.lists, n+k)
	sc.isLive = growBools(sc.isLive, n)
	sc.deadNeed = growInts(sc.deadNeed, nK)
	sc.deadAbove = growInts(sc.deadAbove, nK)
	sc.live = growInts(sc.live, n)
}

// fillKeys writes database i's keys of the grid: their values and
// P(rᵢ = v), their rows of gt and less against every database, one
// column at a time, and their deadNeed and deadAbove.
func (sc *selScratch) fillKeys(rds []*RD, i int) {
	n := sc.n
	lo, hi := sc.keyStart[i], sc.keyStart[i+1]
	copy(sc.keyVal[lo:hi], rds[i].values)
	copy(sc.keyEq[lo:hi], rds[i].probs)
	for j, rdj := range rds {
		sc.fillColumn(rdj, j, i, lo, hi)
	}
	for t := lo; t < hi; t++ {
		dead, above := 0, 0
		for j, live := range sc.isLive[:n] {
			if !live {
				if sc.less[t*n+j] == 0 {
					dead++
				}
				if sc.gt[t*n+j] == 1 {
					above++
				}
			}
		}
		sc.deadNeed[t], sc.deadAbove[t] = dead, above
	}
}

// fillColumn writes column j of gt and less for the keys [lo, hi) of
// database i: P(κⱼ > K) and P(κⱼ < K) for K = (v, i), v = keyVal[t].
// Those keys ascend, so one index walks j's support once, advancing
// while vals[x] < v: x is the first index with vals[x] >= v, the one
// sort.SearchFloat64s returns. P(rⱼ = v), when vals[x] is v, goes to the
// side the index tie-break puts it on.
func (sc *selScratch) fillColumn(rdj *RD, j, i, lo, hi int) {
	n := sc.n
	vals := rdj.values
	x := 0
	for t := lo; t < hi; t++ {
		v := sc.keyVal[t]
		for x < len(vals) && vals[x] < v {
			x++
		}
		gt, less := rdj.cumGE[x], rdj.cumLT[x]
		if x < len(vals) && vals[x] == v {
			gt = rdj.cumGE[x+1]
			if eq := rdj.probs[x]; j < i {
				gt += eq
			} else if j > i {
				less += eq
			}
		}
		sc.gt[t*n+j], sc.less[t*n+j] = gt, less
	}
}

// collapse repairs a grid built before database h's RD became the
// impulse rds[h], with the calls build would make: h's key block shrinks
// to its one key, column h and h's own row are recomputed, h leaves the
// live list and enters deadNeed and deadAbove. The caller guarantees h
// was live in the grid and nothing else changed.
func (sc *selScratch) collapse(rds []*RD, h int) {
	n := sc.n
	hb, he, nK := sc.keyStart[h], sc.keyStart[h+1], sc.keyStart[n]
	copy(sc.keyVal[hb+1:], sc.keyVal[he:nK])
	copy(sc.keyEq[hb+1:], sc.keyEq[he:nK])
	copy(sc.deadNeed[hb+1:], sc.deadNeed[he:nK])
	copy(sc.deadAbove[hb+1:], sc.deadAbove[he:nK])
	copy(sc.gt[(hb+1)*n:], sc.gt[he*n:nK*n])
	copy(sc.less[(hb+1)*n:], sc.less[he*n:nK*n])
	for j := h + 1; j <= n; j++ {
		sc.keyStart[j] -= he - hb - 1
	}
	sc.isLive[h] = false
	at := slices.Index(sc.live, h)
	sc.live = slices.Delete(sc.live, at, at+1)

	rd := rds[h]
	for i := 0; i < n; i++ {
		if i == h {
			sc.fillKeys(rds, h)
			continue
		}
		sc.fillColumn(rd, h, i, sc.keyStart[i], sc.keyStart[i+1])
		for t := sc.keyStart[i]; t < sc.keyStart[i+1]; t++ {
			if sc.less[t*n+h] == 0 {
				sc.deadNeed[t]++
			}
			if sc.gt[t*n+h] == 1 {
				sc.deadAbove[t]++
			}
		}
	}
	sc.finish()
}

// finish derives the DP rows and marginals from the grid, replicating
// the reference's membership marginal exactly: for key t of dbᵢ the row's factors are
// P(beats(j, i) | rᵢ = v) = gt[t][j] over j ≠ i ascending, and the
// marginal is the prob-weighted sum of row tails. What was cached for a
// candidate is void afterwards.
func (sc *selScratch) finish() {
	n, k := sc.n, sc.k
	for i := 0; i < n; i++ {
		m := 0.0
		for t := sc.keyStart[i]; t < sc.keyStart[i+1]; t++ {
			row := sc.dp[t*k : t*k+k]
			sc.dpRowInto(row, t, i, -1)
			m += sc.keyEq[t] * sumTail(row)
		}
		if m > 1 {
			m = 1
		}
		sc.marg[i] = m
	}
	sc.tailDB = -1
	sc.valid, sc.collapsed, sc.baseDone = true, -1, false
}

// sizeTermTable sets up the term cache's index for (n, k): a slot per
// k-set and the binomials its rank is summed from, or neither when there
// are more than maxTermSets sets. A set's rank is below C(n, k), so the
// binomials it reads are too, and the others may saturate.
func (sc *selScratch) sizeTermTable() {
	n, k := sc.n, sc.k
	sc.choose, sc.termSlots = sc.choose[:0], sc.termSlots[:0]
	sets := stats.BinomialCoefficient(n, k)
	if sets > maxTermSets {
		return
	}
	sc.choose = growInts(sc.choose, k*n)
	for c := 0; c < n; c++ {
		sc.choose[c] = c
	}
	for x := n; x < k*n; x++ {
		sc.choose[x] = 0
		if x%n > 0 {
			sc.choose[x] = min(sc.choose[x-1]+sc.choose[x-n-1], maxTermSets)
		}
	}
	sc.termSlots = slices.Grow(sc.termSlots, int(sets))[:int(sets)]
	clear(sc.termSlots)
}

// dpRowInto fills dst (length k) with the truncated Poisson-binomial
// DP over key t's factors gt[t][j] for j other than skip and skip2, with
// the bits of the reference's Poisson-binomial tail over the beat
// probabilities it gathers: the live factors go through the same
// top-down update, ascending and clamped alike, and the impulses are
// left out of it. An impulse's factor is exactly 0, the identity, or
// exactly 1, which maps every cell to the one below it without rounding
// and commutes with every other factor; so the row is shifted up one
// cell per such impulse (deadAbove) at the end instead.
func (sc *selScratch) dpRowInto(dst []float64, t, skip, skip2 int) {
	n := sc.n
	sc.rows++
	sc.rowLive += len(sc.live)
	factors := sc.gt[t*n : t*n+n]
	clear(dst)
	dst[0] = 1
	hi := len(dst) - 1
	for _, j := range sc.live {
		if j == skip || j == skip2 {
			continue
		}
		p := factors[j]
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
	shift := sc.deadAbove[t]
	for _, j := range [2]int{skip, skip2} {
		if j >= 0 && !sc.isLive[j] && factors[j] == 1 {
			shift--
		}
	}
	if shift >= len(dst) {
		clear(dst)
	} else if shift > 0 {
		copy(dst[shift:], dst[:len(dst)-shift])
		clear(dst[:shift])
	}
}

// sumTail sums a DP row and clamps to 1 — the P(at most k−1 others
// beat the owner) tail, with the reference's clamp.
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

// beginHypothesis arms "dbₕ's RD collapses to an impulse at its vi-th
// support value" without touching the grid or the DP rows: it locates w
// among every other database's keys and derives the hypothesis marginals
// from the swapped tails. A new candidate voids the tails and terms kept
// for the last one. An h that is an impulse already hypothesises the
// base state and arms nothing.
func (sc *selScratch) beginHypothesis(h, vi int) {
	if !sc.isLive[h] {
		return
	}
	n, k := sc.n, sc.k
	sc.hypKey = sc.keyStart[h] + vi
	w := sc.keyVal[sc.hypKey]
	if sc.tailDB != h {
		tails := sc.hypTail[:2*sc.keyStart[n]]
		for x := range tails {
			tails[x] = tailUnset
		}
		sc.tailDB = h
		sc.termArena = sc.termArena[:0]
		if sc.termEpoch++; sc.termEpoch == 0 {
			clear(sc.termSlots)
			sc.termEpoch = 1
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := sc.keyStart[i], sc.keyStart[i+1]
		if i == h {
			// dbₕ's own rows exclude factor h.
			sc.hypMarg[h] = sumTail(sc.dp[sc.hypKey*k : sc.hypKey*k+k])
			continue
		}
		// An impulse at w against key K = (v, i): P(κₕ > K) and P(κₕ < K)
		// are indicators with the index tie-break, and i's keys ascend.
		gtEnd := lo
		for gtEnd < hi && (w > sc.keyVal[gtEnd] || (w == sc.keyVal[gtEnd] && h < i)) {
			gtEnd++
		}
		sc.hypGTEnd[i] = gtEnd
		// Row t of dbᵢ swaps its h factor to 1 below gtEnd, to 0 from there.
		m := 0.0
		for t := lo; t < hi; t++ {
			newP := 0
			if t < gtEnd {
				newP = 1
			}
			tail := sc.hypTail[2*t+newP]
			if tail == tailUnset {
				tail = sc.swappedTails(t, i, newP)
			}
			m += sc.keyEq[t] * tail
		}
		if m > 1 {
			m = 1
		}
		sc.hypMarg[i] = m
	}
	sc.hypActive = true
}

// swappedTails computes the tails of key t's DP row (owner i ≠ tailDB)
// with factor tailDB swapped to 0 and to 1, stores them in hypTail and
// returns the one asked for. Both come from the row without that factor
// — the cached row when the factor is 0, one deconvolution when it is
// small, one O(n·k) rebuild otherwise: swapped to 0 the row is that one,
// swapped to 1 it is that one shifted up a cell, whose tail is the sum of
// all cells but the last. A factor of exactly 1 is in the cached row
// already, and every support value of the candidate leaves it there.
func (sc *selScratch) swappedTails(t, i, want int) float64 {
	n, k, h := sc.n, sc.k, sc.tailDB
	tails := sc.hypTail[2*t : 2*t+2]
	row := sc.dp[t*k : t*k+k]
	oldP := sc.gt[t*n+h]
	if oldP < 0 {
		oldP = 0
	} else if oldP > 1 {
		oldP = 1
	}
	switch {
	case oldP == 0:
	case oldP == 1 && want == 1:
		tails[1] = sumTail(row)
		return tails[1]
	case oldP <= deconvMaxP && k <= deconvMaxK:
		deconvolveBernoulli(sc.pbRow, row, oldP)
		row = sc.pbRow
		sc.tailDeconvs++
	default:
		sc.dpRowInto(sc.pbRow, t, i, h)
		row = sc.pbRow
		sc.tailRebuilds++
	}
	tails[0], tails[1] = sumTail(row), sumTail(row[:k-1])
	return tails[want]
}

// valueCaps writes into caps, for each support value v of the live
// candidate h, the cap on max_S E[Cor(S) | r_h = v] that Greedy.Rank
// derives from the ceiling C on every k-set's E[Cor] now, h's marginal p
// and the tail of key (v, h)'s DP row: max(min(C + p, 1 − tail_v),
// min(C + 1 − p, tail_v)), the larger of the bounds on sets without h
// and on sets with it. It returns Σ_v P(v)·cap_v in ascending value
// order.
func (sc *selScratch) valueCaps(rd *RD, h int, ceiling float64, caps []float64) float64 {
	k := sc.k
	p := sc.marg[h]
	without, with := ceiling+p, ceiling+1-p
	sum := 0.0
	for vi := range caps {
		t := sc.keyStart[h] + vi
		tail := sumTail(sc.dp[t*k : t*k+k])
		caps[vi] = max(min(without, 1-tail), min(with, tail))
		sum += rd.Prob(vi) * caps[vi]
	}
	return sum
}

// listSet readies the scoring of set, which must be ascending: others
// lists the live databases outside set and other than skip (−1: none),
// ascending, and members the impulses in set.
func (sc *selScratch) listSet(set []int, skip int) {
	sc.others, sc.members = sc.lists[:0:sc.n], sc.lists[sc.n:sc.n]
	x := 0
	for _, j := range sc.live {
		for x < len(set) && set[x] < j {
			x++
		}
		if j != skip && (x == len(set) || set[x] != j) {
			sc.others = append(sc.others, j)
		}
	}
	for _, i := range set {
		if !sc.isLive[i] {
			sc.members = append(sc.members, i)
		}
	}
}

// keyTerm returns key t's term of E[Cor_a(set)], P(min over the set =
// K)·P(every non-member is below K) for K = key t of set member pivot,
// with database skip's factor left out of both products (−1: none;
// skip = pivot: K is the hypothesised key, which dbₕ is at and not
// above). It mirrors the reference E[Cor_a]: identical factor order, clamps and
// early exits, minus the impulse factors that are exactly 1 and the keys
// an impulse factor of exactly 0 wipes out, which add +0. set must be
// ascending, and listSet must have listed it with skip.
func (sc *selScratch) keyTerm(t, pivot int, set []int, skip int) float64 {
	n := sc.n
	lessRow := sc.less[t*n : t*n+n]
	// An impulse outside the set that is not below K makes the
	// non-member product exactly 0: the key adds nothing.
	if need := sc.deadNeed[t]; need > 0 {
		for _, i := range sc.members {
			if lessRow[i] == 0 {
				need--
			}
		}
		if need > 0 {
			return 0
		}
	}
	gtRow := sc.gt[t*n : t*n+n]
	// P(min over the set = K): Π P(κᵢ ≥ K) − Π P(κᵢ > K). The two
	// factors differ only at the pivot, by P(r_pivot = v).
	pGE, pGT := 1.0, 1.0
	for _, i := range set {
		if i == skip {
			continue
		}
		f := gtRow[i]
		pGT *= f
		if i == pivot {
			f += sc.keyEq[t]
		}
		pGE *= f
	}
	if pivot == skip {
		pGT = 0
	}
	pMinEq := pGE - pGT
	if pMinEq <= 0 {
		return 0
	}
	// Every remaining impulse factor is exactly 1; multiply the live
	// non-members only.
	pBelow := 1.0
	for _, j := range sc.others {
		if pBelow <= 0 {
			break
		}
		pBelow *= lessRow[j]
	}
	return pMinEq * pBelow
}

// baseExpected evaluates E[Cor_a(set)] of the base state from the grid.
// set must be ascending.
func (sc *selScratch) baseExpected(set []int) float64 {
	sc.listSet(set, -1)
	total := 0.0
	for _, pivot := range set {
		for t := sc.keyStart[pivot]; t < sc.keyStart[pivot+1]; t++ {
			total += sc.keyTerm(t, pivot, set, -1)
		}
	}
	if total > 1 {
		total = 1
	}
	return total
}

// hypExpected evaluates E[Cor_a(set)] under the active hypothesis
// "dbₕ = w". With h's factor left out a key's term does not depend on w
// (termVector); the factor itself is exactly 1 or 0. Outside the set h
// must be below K, so the term counts for the keys above w; inside it h
// must be above the minimum key, so it counts for the keys below w; and
// where h is the minimum only the hypothesised key has P(rₕ = v) > 0.
// ×1.0 is the identity and a term of +0 adds nothing, so summing the
// counted terms in key order gives the bits the full products would.
// set must be ascending.
func (sc *selScratch) hypExpected(set []int) float64 {
	h := sc.tailDB
	inSet := false
	for _, i := range set {
		inSet = inSet || i == h
	}
	vec := sc.termVector(set)
	total := 0.0
	for _, pivot := range set {
		lo, hi := sc.keyStart[pivot], sc.keyStart[pivot+1]
		if pivot == h {
			sc.listSet(set, h)
			total += sc.keyTerm(sc.hypKey, h, set, h)
			continue
		}
		terms := vec[:hi-lo]
		vec = vec[hi-lo:]
		if inSet {
			terms = terms[:sc.hypGTEnd[pivot]-lo]
		} else {
			terms = terms[sc.hypGTEnd[pivot]-lo:]
		}
		for _, term := range terms {
			total += term
		}
	}
	if total > 1 {
		total = 1
	}
	return total
}

// termVector returns keyTerm with the candidate's factor left out for
// every key of every member of set other than the candidate, members and
// keys ascending — from the term cache when an earlier support value
// scored the set, computed and, room permitting, kept otherwise. Valid
// until the next call.
func (sc *selScratch) termVector(set []int) []float64 {
	h := sc.tailDB
	size := 0
	for _, i := range set {
		if i != h {
			size += sc.keyStart[i+1] - sc.keyStart[i]
		}
	}
	var slot *termSlot
	if len(sc.termSlots) > 0 {
		rank := 0
		for d, c := range set {
			rank += sc.choose[d*sc.n+c]
		}
		slot = &sc.termSlots[rank]
		if slot.epoch == sc.termEpoch {
			sc.shared++
			return sc.termArena[slot.off : int(slot.off)+size]
		}
	}
	sc.termTmp = growFloats(sc.termTmp, size)
	vec := sc.termTmp
	if off := len(sc.termArena); slot != nil && off+size <= maxTermFloats {
		sc.termArena = slices.Grow(sc.termArena, size)[:off+size]
		vec = sc.termArena[off:]
		*slot = termSlot{sc.termEpoch, uint32(off)}
	}
	sc.listSet(set, h)
	x := 0
	for _, pivot := range set {
		if pivot == h {
			continue
		}
		for t := sc.keyStart[pivot]; t < sc.keyStart[pivot+1]; t++ {
			vec[x] = sc.keyTerm(t, pivot, set, h)
			x++
		}
	}
	return vec
}

// searchPool returns how many of the top-marginal candidates the
// absolute search enumerates over — the reference's rule, decided once per
// (n, k) instead of once per call.
func (sc *selScratch) searchPool() int {
	if sc.pool == 0 {
		sc.pool = min(sc.k+extraCandidates, sc.n)
		if stats.BinomialCoefficient(sc.n, sc.k) <= exhaustiveLimit {
			sc.pool = sc.n
		}
	}
	return sc.pool
}

// bestFrom runs the best-set search over the scratch tables (the base
// state, or the hypothesis when one is active), without allocating: the
// returned set lives in sc.bestBuf and is valid until the next call.
// Requires 0 < k < n. The candidate ordering, enumeration order,
// pruning and tie-breaking replicate the reference's exactly.
func (sc *selScratch) bestFrom(metric Metric) ([]int, float64) {
	n, k := sc.n, sc.k
	marg := sc.marg
	if sc.hypActive {
		marg = sc.hypMarg
	}
	sc.sets, sc.shared, sc.baseDone = 0, 0, false

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
		sc.sets++
		return set, sc.baseAnswer(total / float64(k))
	}

	m := sc.searchPool()
	sc.exhaustive = m == n
	candidates := order[:m]

	sc.comboIdx = growInts(sc.comboIdx, k)
	sc.comboGap = growInts(sc.comboGap, k)
	sc.combo = growInts(sc.combo, k)
	sc.chosen = growInts(sc.chosen, k)

	// Iterative combination enumeration — the same visit order as the
	// reference's recursion (idx[d] is the loop variable at depth d,
	// gap[d] the first candidate position the combination leaves out, −1
	// while it is a gapless prefix), kept loop-shaped so the hot path
	// allocates no closures. Three exact bounds prune it: a correct set
	// has every member in the true top-k and every non-member outside it,
	// so E[Cor_a(S)] ≤ min_{i∈S} P(i ∈ topk) and
	// E[Cor_a(S)] ≤ 1 − max_{j∉S} P(j ∈ topk). Candidates go by
	// decreasing marginal, so the best excluded database is the first
	// position skipped, and once either bound cannot beat the incumbent
	// the whole suffix at this depth goes with it. Third, exactly one
	// k-set is the top-k, so the E[Cor_a] of the sets containing i sum to
	// P(i ∈ topk): a set not scored yet is bounded by min over its members
	// of the residual, the marginal less the E of every set scored with
	// that member. That bound is not monotone in i, so it skips the node
	// and its subtree, not the suffix.
	bestE := -1.0
	resid := sc.resid
	copy(resid, marg[:n])
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
		r := resid[candidates[i]]
		for _, c := range sc.combo[:depth] {
			r = min(r, resid[c])
		}
		if r+pruneSlack <= bestE {
			idx[depth]++
			continue
		}
		if depth == k-1 {
			copy(sc.chosen, sc.combo)
			insertionSortInts(sc.chosen)
			sc.sets++
			var e float64
			if sc.hypActive {
				e = sc.hypExpected(sc.chosen)
			} else {
				e = sc.baseExpected(sc.chosen)
			}
			for _, c := range sc.chosen {
				resid[c] -= e
			}
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
	return sc.bestBuf, sc.baseAnswer(bestE)
}

// baseAnswer returns e, the E[Cor] of the set bestFrom leaves in bestBuf,
// and keeps it when the search was the base state's.
func (sc *selScratch) baseAnswer(e float64) float64 {
	if !sc.hypActive {
		sc.baseDone, sc.baseE = true, e
	}
	return e
}

// insertionSortByDesc stably sorts order by score descending (ties
// keep ascending-index order) — the same result as the reference's stable
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
