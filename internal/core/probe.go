package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"metaprobe/internal/stats"
)

// ProbeFunc issues the live query to database i and returns the exact
// relevancy (the caller binds the query and the testbed).
type ProbeFunc func(i int) (float64, error)

// CheckAnswer holds a probe's answer to the rule every live answer meets
// where it enters: a relevancy is finite and ≥ 0 (§2.1). It returns v and
// err, with an error in err's place for any other v: a failed probe.
func CheckAnswer(v float64, err error) (float64, error) {
	if err == nil && !(v >= 0 && v < math.Inf(1)) { // written so that NaN fails it
		err = fmt.Errorf("core: probe answer %v is not a relevancy", v)
	}
	return v, err
}

// Prober is how the APro loop reaches the backends. The loop calls it
// from one goroutine. A ProbeFunc answers inline; the probe
// executor's (internal/probeexec) adds pooling and circuit breakers
// behind the same calls, and as an Overlapper probes in the background.
type Prober interface {
	// Wait returns database i's relevancy, blocking until it is known.
	Wait(ctx context.Context, i int) (float64, error)
	// Drain cancels every probe that was started but never waited for,
	// and returns once they have all finished.
	Drain()
}

// Wait implements Prober: a ProbeFunc probes on the loop's goroutine,
// one database at a time.
func (p ProbeFunc) Wait(_ context.Context, i int) (float64, error) { return p(i) }

// Drain implements Prober: an inline probe leaves nothing in flight.
func (ProbeFunc) Drain() {}

// Policy chooses which database to probe next (the SelectDb step of
// the APro algorithm, Figure 11). Policies are immutable values: Next
// is a function of the selection state alone, so one policy may serve
// any number of concurrent selections.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Next picks an unprobed database given the selection state and
	// the user-required certainty t; it must only return indices for
	// which s.isProbed(i) is false.
	Next(s *Selection, t float64) (int, error)
}

// ProbeStep records one probing action.
type ProbeStep struct {
	// DB is the probed database's index.
	DB int
	// Value is the observed relevancy (meaningless when Err != nil).
	Value float64
	// Err is the probe failure, if any.
	Err error
	// Usefulness is the policy's expected usefulness of this probe at
	// the moment it was chosen, when the policy is a Ranker; 0
	// otherwise.
	Usefulness float64
	// CertaintyAfter is E[Cor] of the best set after this step was
	// applied.
	CertaintyAfter float64
}

// Outcome is the result of running APro on one query.
type Outcome struct {
	// Set is the selected k-set (database indices, ascending).
	Set []int
	// Certainty is E[Cor(Set)] at termination.
	Certainty float64
	// Initial is E[Cor] of the best set before any probing — the
	// RD-based starting point of the certainty trajectory.
	Initial float64
	// Steps are the probes performed, in order.
	Steps []ProbeStep
	// Reached reports whether Certainty met the user's threshold.
	Reached bool
	// Degraded reports that one or more databases were excluded because
	// their probe failed, so the selection was computed over a reduced
	// testbed.
	Degraded bool
	// Excluded lists the excluded database indices, ascending.
	Excluded []int
	// ProbeErrs are the errors of the failed probes, in step order.
	ProbeErrs []error
}

// Ranker is implemented by probe policies that can rank several probe
// candidates at once, in the order Next would choose them on the
// current state, and say how useful each is. The APro loop asks for the
// first, and asks again on hypothetical next states when it thinks
// ahead of a probe in flight (Overlapper); policies without it are
// probed strictly one at a time. Rank must return the same first
// element Next would return.
type Ranker interface {
	// Rank returns up to m unprobed candidate databases in decreasing
	// expected-usefulness order along with each candidate's raw
	// usefulness; m <= 0 ranks all candidates. Rank(s, t, m) is exactly
	// the first m entries of Rank(s, t, 0): m tells the policy how much
	// of the order will be read, never which order. The slices are views
	// owned by the selection, valid until the next Rank on it.
	Rank(s *Selection, t float64, m int) (dbs []int, usefulness []float64, err error)
}

// Probes returns the number of successful probes performed.
func (o Outcome) Probes() int {
	n := 0
	for _, s := range o.Steps {
		if s.Err == nil {
			n++
		}
	}
	return n
}

// ErrNoInformativeProbe reports that every remaining unprobed RD is
// already an impulse: live probes can only confirm known values and
// cannot change E[Cor], so issuing them would be pure backend traffic.
// Policies return it (wrapped or bare) from Next/Rank; APro treats it
// as a graceful stop, returning the best set with Reached=false.
var ErrNoInformativeProbe = errors.New("core: no informative probe available")

// APro runs AProContext without cancellation, probing inline through
// probe.
func APro(s *Selection, probe ProbeFunc, policy Policy, t float64, maxProbes int) (Outcome, error) {
	var out Outcome
	if probe == nil {
		return out, fmt.Errorf("core: APro needs a probe function")
	}
	err := AProContext(context.Background(), s, probe, policy, t, maxProbes, &out)
	return out, err
}

// AProContext is the adaptive probing algorithm (Figure 11): starting
// from the RD-based state, repeatedly check whether some k-set reaches
// the user-required expected correctness t; if not, pick a database
// with the policy, probe it live, collapse its RD to an impulse, and
// try again. maxProbes < 0 means unbounded (bounded anyway by the
// number of databases). out is reset first, reusing its slices'
// capacity, and holds the best available selection on every return;
// paired with Selection.Reuse, a caller running many selections back to
// back keeps the whole probe loop allocation-free.
//
// A failed probe — an error, or an answer CheckAnswer refuses — does not
// fail the selection: the database is treated as serving nothing for
// this query (its RD collapses to relevancy 0, pushing it out of the best
// set whenever a live alternative exists) and the run continues,
// reporting it in out.Excluded and its error in out.ProbeErrs. If the
// threshold remains unreachable after every database is probed, or the
// policy reports ErrNoInformativeProbe, the best available set is
// returned with Reached=false. The returned error is reserved for bad
// arguments, policy failures and ctx ending.
func AProContext(ctx context.Context, s *Selection, p Prober, policy Policy, t float64, maxProbes int, out *Outcome) error {
	return aproContext(ctx, s, p, policy, t, maxProbes, wideFrom, out)
}

// aproContext is AProContext with the lookahead starting wide once wideAt
// steps are folded (wideFrom in production; replays sweep it).
func aproContext(ctx context.Context, s *Selection, p Prober, policy Policy, t float64, maxProbes, wideAt int, out *Outcome) error {
	*out = Outcome{Set: out.Set[:0], Steps: out.Steps[:0], Excluded: out.Excluded[:0], ProbeErrs: out.ProbeErrs[:0]}
	if !(t >= 0 && t <= 1) { // written so that NaN fails it
		return fmt.Errorf("core: certainty threshold %v outside [0,1]", t)
	}
	if p == nil || policy == nil {
		return fmt.Errorf("core: APro needs a prober and a policy")
	}
	defer p.Drain()
	ranker, _ := policy.(Ranker)
	// Thinking behind a probe takes a policy whose choice can be asked
	// for on another state and a prober that probes in the background.
	var over Overlapper
	var la *lookahead
	if ranker != nil {
		if over, _ = p.(Overlapper); over != nil {
			la = lookaheadPool.Get().(*lookahead)
			defer la.release()
		}
	}
	probes := 0 // successful ones, as out.Probes() counts them
	for {
		mark := s.stageStart()
		set, e := s.BestView()
		s.stageEnd(StageECorDP, mark)
		out.Set = append(out.Set[:0], set...)
		out.Certainty = e
		// Every iteration re-evaluates the best set, so this is where the
		// trajectory is written: the first evaluation is the RD-based
		// starting certainty, later ones the certainty after the previous
		// step.
		if n := len(out.Steps); n > 0 {
			out.Steps[n-1].CertaintyAfter = e
		} else {
			out.Initial = e
		}
		if e >= t {
			out.Reached = true
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: selection abandoned: %w", err)
		}
		budget := len(s.UnprobedView()) // probes this run may still issue
		if maxProbes >= 0 {
			budget = min(budget, maxProbes-probes)
		}
		if budget <= 0 {
			return nil
		}

		// SelectDb. The head of a ranking is what Next would return.
		var head int
		var usefulness float64
		var err error
		var rankTime time.Duration
		mark = s.stageStart()
		if ranker != nil {
			var ranked []int
			var us []float64
			start := time.Now()
			if ranked, us, err = ranker.Rank(s, t, 1); err == nil {
				head, usefulness = ranked[0], us[0]
			}
			rankTime = time.Since(start)
		} else {
			head, err = policy.Next(s, t)
		}
		s.stageEnd(StageRank, mark)
		if errors.Is(err, ErrNoInformativeProbe) {
			// Every remaining unprobed RD is an impulse: further probes
			// cannot move E[Cor], so stop with the best available set
			// instead of issuing informationless backend traffic.
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: probe policy %s: %w", policy.Name(), err)
		}
		if s.isProbed(head) {
			return fmt.Errorf("core: policy %s chose already-probed database %d", policy.Name(), head)
		}

		// The probe stage is the time the loop spends on the probe it
		// needs next: blocked, or thinking ahead while it is in flight. A
		// probe started early has (partly) paid its latency already.
		mark = s.stageStart()
		if over != nil && budget >= 2 && over.Latency(head) > thinkRatio*(thinkFixed+rankTime) {
			over.Start(ctx, head)
			// Let the probe's goroutine reach the wire before this one
			// takes the processor for the lookahead; without the yield the
			// probe leaves late by about as much as the overlap saves.
			runtime.Gosched()
			wide := len(out.Steps) >= wideAt
			for _, next := range la.probableNext(s, ranker, head, t, wide, func() bool { return over.Answered(head) }) {
				over.Start(ctx, next)
			}
		}
		v, err := CheckAnswer(p.Wait(ctx, head))
		s.stageEnd(StageProbe, mark)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("core: selection abandoned: %w", ctx.Err())
			}
			v = 0
			out.Degraded = true
			out.Excluded = append(out.Excluded, head)
			sort.Ints(out.Excluded)
			out.ProbeErrs = append(out.ProbeErrs, err)
		} else {
			probes++
		}
		s.ApplyProbe(head, v)
		out.Steps = append(out.Steps, ProbeStep{DB: head, Value: v, Err: err, Usefulness: usefulness})
	}
}

// Greedy is the paper's greedy probing policy (Section 5.4): probe the
// database whose expected usefulness — the outcome-weighted best
// achievable E[Cor] after the probe — is highest. With a cost function
// set, usefulness gains are divided by per-database probe cost
// (Section 5.2's extension to non-uniform costs).
type Greedy struct {
	// Cost returns the probe cost of database i; nil means uniform. It
	// must be safe for concurrent use when the policy is shared.
	Cost func(i int) float64
}

// Name implements Policy.
func (g Greedy) Name() string { return "greedy" }

// usefulness computes the expected usefulness of probing database i:
// Σ_v P(rᵢ = v) · max_set E[Cor(set) | rᵢ = v] (Figure 13).
func (g Greedy) usefulness(s *Selection, i int) float64 {
	rd := s.RD(i)
	s.work.Hypotheses += rd.Len()
	u := 0.0
	for vi := 0; vi < rd.Len(); vi++ {
		_, e := s.bestIf(i, vi)
		u += rd.Prob(vi) * e
	}
	return u
}

// boundedUsefulness is usefulness for a candidate that may be left out:
// it evaluates h's support values most probable first and gives up,
// reporting false, as soon as what it has found plus the caps of the
// values still to go (Σ P·E + Σ P·cap, valueCaps) scores below cut. A
// candidate that finishes sums its terms in ascending value order, as
// usefulness does, so its bits are the same.
func (g Greedy) boundedUsefulness(s *Selection, h int, ceiling, current, cost, cut float64) (float64, bool) {
	sc := s.scratch
	rd := s.RD(h)
	nv := rd.Len()
	sc.valCap = growFloats(sc.valCap, nv)
	sc.valE = growFloats(sc.valE, nv)
	sc.valRest = growFloats(sc.valRest, nv+1)
	sc.valOrder = growInts(sc.valOrder, nv)
	sc.valueCaps(rd, h, ceiling, sc.valCap)
	for vi := range sc.valOrder {
		sc.valOrder[vi] = vi
	}
	insertionSortByDesc(sc.valOrder, rd.probs)
	sc.valRest[nv] = 0
	for x := nv - 1; x >= 0; x-- {
		vi := sc.valOrder[x]
		sc.valRest[x] = sc.valRest[x+1] + rd.Prob(vi)*sc.valCap[vi]
	}
	found := 0.0
	for x, vi := range sc.valOrder {
		_, e := s.bestIf(h, vi)
		s.work.Hypotheses++
		sc.valE[vi] = e
		found += rd.Prob(vi) * e
		if x < nv-1 && g.score(found+sc.valRest[x+1], current, cost) < cut {
			return 0, false
		}
	}
	u := 0.0
	for vi := 0; vi < nv; vi++ {
		u += rd.Prob(vi) * sc.valE[vi]
	}
	return u, true
}

// score is what Rank compares a usefulness u of a probe costing cost by:
// u itself, or with a cost function the gain over current per unit of
// cost — the gain, not the level, so that two candidates of equal
// usefulness but different cost prefer the cheaper probe.
func (g Greedy) score(u, current, cost float64) float64 {
	if g.Cost == nil {
		return u
	}
	return (u - current) / cost
}

// Next implements Policy: the top-ranked candidate.
func (g Greedy) Next(s *Selection, t float64) (int, error) {
	dbs, _, err := g.Rank(s, t, 1)
	if err != nil {
		return 0, err
	}
	return dbs[0], nil
}

// Rank implements Ranker: the top-m unprobed databases in the order
// Next would choose them, by repeated selection with one comparison
// rule (score above an epsilon margin wins; near-equal scores prefer
// the cheaper probe; remaining ties the lower index). Usefulness values
// are the raw (cost-unnormalized) expectations. The working buffers
// live in the selection's pooled scratch, so a steady-state probe loop
// does not allocate and the policy itself holds no state.
//
// When fewer than all candidates are asked for, the absolute metric
// lets Rank leave some unevaluated, or unfinished. Take C ≥ the best
// E[Cor] over all k-sets now, p = P(dbₕ ∈ top-k) and, for each support
// value v of dbₕ, tail_v = P(h ∈ top-k | r_h = v), the tail of key
// (v, h)'s DP row. Given r_h = v, a set without h is the true top-k only
// if it is the top-k of the others, an event independent of r_h whose
// probability is at most C + p, and only if h is not in the top-k,
// which has probability 1 − tail_v; a set with h is the top-k only if h
// is in it (tail_v), and only if the set without h is the top-(k−1) of
// the others, which has probability at most C + 1 − p. So
// max_S E[Cor(S) | v] ≤ cap_v = max(min(C + p, 1 − tail_v),
// min(C + 1 − p, tail_v)), and the usefulness of probing dbₕ is at most
// Σ_v P(v)·cap_v, never more than the B + 2·min(p, 1−p) the same
// argument gives averaged over v. Candidates are swept in
// decreasing order of that bound, and the sweep stops once the bound,
// plus a margin, is below the m-th best exact score so far. Once m
// scores are in, a candidate's values go most probable first, and it is
// given up (Abandoned) as soon as the values evaluated plus the caps of
// the rest, plus the margin, fall below that score too.
//
// The margin is (candidates + 2)·probEpsilon + pruneSlack and not one
// epsilon, because the comparison rule is not transitive: it lets an
// incumbent be replaced by a cheaper candidate up to an epsilon worse,
// so a run of near-equal scores can step down one epsilon per
// candidate, and which of them holds the lead when a clear winner
// arrives may depend on a low scorer having been in the scan. A
// candidate more than that many epsilons below the m-th best score can
// hold the lead only while every score seen is as low as its own, and
// loses it to the first of the top m to arrive, so leaving it out of the
// scan, unevaluated or unfinished, changes none of the first m places:
// the ranking returned is exactly the first m entries of the full
// sweep's.
func (g Greedy) Rank(s *Selection, t float64, m int) ([]int, []float64, error) {
	unprobed := s.UnprobedView()
	if len(unprobed) == 0 {
		return nil, nil, fmt.Errorf("no unprobed database left")
	}
	// The head and its usefulness are a function of the state when no cost
	// function weighs in (t never does), so with a memo node they are read
	// from it, or computed below and stored.
	node := s.memo
	if m != 1 || g.Cost != nil {
		node = nil
	}
	if node != nil {
		switch node.rank.Load() {
		case memoSet:
			s.work.MemoHits++
			s.memoHead[0], s.memoU[0] = int(node.head), node.u
			return s.memoHead[:], s.memoU[:], nil
		case memoNoProbe:
			s.work.MemoHits++
			return nil, nil, ErrNoInformativeProbe
		}
		s.work.MemoMisses++
	}
	// evaluate, not best: the sweep below reads the scratch the evaluation
	// leaves behind, which a remembered best set would not have built.
	_, current := s.evaluate()
	if s.scratch == nil {
		// Degenerate-k selections evaluate without the scratch; they take
		// one for the rank buffers, once.
		s.scratch = acquireScratch()
	}
	sc := s.scratch
	sc.candIdx = growInts(sc.candIdx, len(unprobed))[:0]
	sc.candCost = growFloats(sc.candCost, len(unprobed))[:0]
	for _, i := range unprobed {
		if s.RD(i).isImpulse() {
			// Probing a known value cannot change E[Cor]; skip it.
			continue
		}
		c := 1.0
		if g.Cost != nil {
			if gc := g.Cost(i); gc > 0 {
				c = gc
			}
		}
		sc.candIdx = append(sc.candIdx, i)
		sc.candCost = append(sc.candCost, c)
	}
	nCand := len(sc.candIdx)
	if nCand == 0 {
		// Every remaining unprobed RD is an impulse: a probe would be
		// informationless backend traffic. Report it so APro stops
		// instead of issuing probes that cannot change the selection.
		if node != nil {
			node.setRank(memoNoProbe, 0, 0)
		}
		return nil, nil, ErrNoInformativeProbe
	}
	if m <= 0 || m > nCand {
		m = nCand
	}
	sc.candRaw = growFloats(sc.candRaw, nCand)
	sc.candScore = growFloats(sc.candScore, nCand)
	sc.picked = growBools(sc.picked, nCand)
	sc.sweep = growInts(sc.sweep, nCand)
	for ci := range sc.sweep {
		sc.sweep[ci] = ci
		sc.picked[ci] = true // until swept
	}

	// The bound needs the cached marginals, so the partial metric and a
	// degenerate k keep the full sweep.
	bounded := m < nCand && s.metric == Absolute && !s.degenerate()
	ceiling := current
	if bounded {
		// When the set search was truncated to the top marginals, current
		// is not a proven maximum; min(p₍k₎, 1 − p₍k+1₎) over the sorted
		// marginals is (every k-set has a member at or below the k-th and
		// leaves out one at or above the k+1-th).
		if !sc.exhaustive {
			ceiling = min(sc.marg[sc.order[s.k-1]], 1-sc.marg[sc.order[s.k]])
		}
		sc.candBound = growFloats(sc.candBound, nCand)
		for ci, i := range sc.candIdx {
			rd := s.RD(i)
			sc.valCap = growFloats(sc.valCap, rd.Len())
			sc.candBound[ci] = g.score(sc.valueCaps(rd, i, ceiling, sc.valCap), current, sc.candCost[ci])
		}
		insertionSortByDesc(sc.sweep, sc.candBound)
	}
	margin := float64(nCand+2)*probEpsilon + pruneSlack
	top := growFloats(sc.topScores, m)[:0] // best scores so far, descending
	for n, ci := range sc.sweep {
		var raw float64
		if bounded && len(top) == m {
			if sc.candBound[ci]+margin < top[m-1] {
				s.work.Skipped += nCand - n
				break
			}
			var placed bool
			if raw, placed = g.boundedUsefulness(s, sc.candIdx[ci], ceiling, current, sc.candCost[ci], top[m-1]-margin); !placed {
				s.work.Abandoned++
				continue
			}
		} else {
			raw = g.usefulness(s, sc.candIdx[ci])
		}
		score := g.score(raw, current, sc.candCost[ci])
		sc.candRaw[ci], sc.candScore[ci], sc.picked[ci] = raw, score, false
		s.work.Swept++
		if len(top) < m {
			top = append(top, score)
		} else if score > top[m-1] {
			top[m-1] = score
		}
		for x := len(top) - 1; x > 0 && top[x] > top[x-1]; x-- {
			top[x], top[x-1] = top[x-1], top[x]
		}
	}
	sc.topScores = top

	sc.rankDBs = growInts(sc.rankDBs, m)[:0]
	sc.rankUs = growFloats(sc.rankUs, m)[:0]
	for len(sc.rankDBs) < m {
		best := -1
		bestScore, bestCost := 0.0, 0.0
		for ci := range sc.candIdx {
			if sc.picked[ci] {
				continue
			}
			score, c := sc.candScore[ci], sc.candCost[ci]
			switch {
			case best < 0,
				score > bestScore+probEpsilon,
				// On (near-)equal scores, prefer the cheaper probe.
				equalFloat(score, bestScore) && c < bestCost-probEpsilon:
				best, bestScore, bestCost = ci, score, c
			}
		}
		sc.picked[best] = true
		sc.rankDBs = append(sc.rankDBs, sc.candIdx[best])
		sc.rankUs = append(sc.rankUs, sc.candRaw[best])
	}
	if node != nil {
		node.setRank(memoSet, sc.rankDBs[0], sc.rankUs[0])
	}
	return sc.rankDBs, sc.rankUs, nil
}

// Random probes a uniformly random unprobed database — the naive
// baseline for the policy ablation (A1).
type Random struct {
	// RNG is the randomness source (required). It is the one piece of
	// policy state that advances per call and a stats.RNG is not safe
	// for concurrent use, so concurrent selections each need their own
	// Random.
	RNG *stats.RNG
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Next implements Policy.
func (r *Random) Next(s *Selection, t float64) (int, error) {
	unprobed := s.UnprobedView()
	if len(unprobed) == 0 {
		return 0, fmt.Errorf("no unprobed database left")
	}
	return unprobed[r.RNG.Intn(len(unprobed))], nil
}

// ByEstimate probes databases in decreasing order of their initial
// estimate r̂ — the "trust the estimator" heuristic baseline.
type ByEstimate struct{}

// Name implements Policy.
func (ByEstimate) Name() string { return "by-estimate" }

// Next implements Policy.
func (ByEstimate) Next(s *Selection, t float64) (int, error) {
	best := -1
	for _, i := range s.UnprobedView() {
		if best < 0 || s.Estimate(i) > s.Estimate(best) {
			best = i
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no unprobed database left")
	}
	return best, nil
}

// MaxEntropy probes the database whose RD carries the most uncertainty
// (highest Shannon entropy) — an information-theoretic baseline that
// ignores how the uncertainty interacts with the selection boundary.
type MaxEntropy struct{}

// Name implements Policy.
func (MaxEntropy) Name() string { return "max-entropy" }

// Next implements Policy.
func (MaxEntropy) Next(s *Selection, t float64) (int, error) {
	best := -1
	bestH := -1.0
	for _, i := range s.UnprobedView() {
		if h := s.RD(i).entropy(); h > bestH {
			best, bestH = i, h
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no unprobed database left")
	}
	return best, nil
}

// Optimal implements the probing policy that minimizes the expected
// number of probes to reach the threshold, by exhaustive expectimin
// over probe orders and outcomes. The paper notes its cost is O(n!)
// and impractical (Section 5.3); it is provided as the gold reference
// for the policy ablation on tiny testbeds.
type Optimal struct {
	// MaxDBs bounds the testbed size the recursion will accept
	// (default 7).
	MaxDBs int
}

// Name implements Policy.
func (o *Optimal) Name() string { return "optimal" }

// Next implements Policy.
func (o *Optimal) Next(s *Selection, t float64) (int, error) {
	i, _, err := o.next(s, t)
	return i, err
}

// next returns the database to probe and the expected number of probes,
// itself included, that probing it first leads to.
func (o *Optimal) next(s *Selection, t float64) (int, float64, error) {
	maxDBs := o.MaxDBs
	if maxDBs == 0 {
		maxDBs = 7
	}
	if s.Len() > maxDBs {
		return 0, 0, fmt.Errorf("optimal policy limited to %d databases, got %d", maxDBs, s.Len())
	}
	unprobed := s.UnprobedView()
	if len(unprobed) == 0 {
		return 0, 0, fmt.Errorf("no unprobed database left")
	}
	x := expectimin{t: t, cost: make(map[string]float64)}
	defer x.release()
	best := -1
	bestCost := 0.0
	for _, i := range unprobed {
		cost := 1 + x.remaining(s, i, 0)
		if best < 0 || cost < bestCost-probEpsilon {
			best, bestCost = i, cost
		}
	}
	return best, bestCost, nil
}

// expectimin is one Optimal.Next's recursion. The state each outcome
// leads to is a selection shell of its own, one per depth, rebuilt from
// the state above it (Reuse, then ApplyProbe, which repairs the grid
// Reuse copied) and evaluated on the scratch like any other state; the
// decision memo stays out of it. The expected probes still to come from
// a state are a function of the state alone, so they are kept by state —
// the probed databases and the bits of their values — and a state that
// several probe orders reach is evaluated once.
type expectimin struct {
	t      float64
	shells []*Selection
	cost   map[string]float64
	key    []byte
}

// remaining returns E[#further probes after probing database i on s]:
// over i's support values, the probability of each times the expected
// probes still to come from the state it leads to. A state already
// costed is read from x.cost before any shell is made for it.
func (x *expectimin) remaining(s *Selection, i, depth int) float64 {
	if depth == len(x.shells) {
		x.shells = append(x.shells, new(Selection))
	}
	c := x.shells[depth]
	rd := s.RD(i)
	total := 0.0
	for vi := 0; vi < rd.Len(); vi++ {
		v := rd.Value(vi)
		x.stateKey(s, i, v)
		cost, ok := x.cost[string(x.key)]
		if !ok {
			key := string(x.key)
			c.Reuse(s)
			c.memoRoot, c.memo = nil, nil
			c.ApplyProbe(i, v)
			cost = x.toCome(c, depth)
			x.cost[key] = cost
		}
		total += rd.Prob(vi) * cost
	}
	return total
}

// stateKey writes to x.key the key of the state s leads to when database
// i answers v: every probed database, ascending, with the bits of its
// value.
func (x *expectimin) stateKey(s *Selection, i int, v float64) {
	x.key = x.key[:0]
	for j, p := range s.probed {
		val := v
		if j != i {
			if !p {
				continue
			}
			val = s.rds[j].Value(0)
		}
		x.key = binary.AppendUvarint(x.key, uint64(j))
		x.key = binary.LittleEndian.AppendUint64(x.key, math.Float64bits(val))
	}
}

// toCome returns the expected probes still to come from state c at
// depth: none once its best set reaches t or nothing is left to probe,
// otherwise the cheapest of one probe plus what it leaves.
func (x *expectimin) toCome(c *Selection, depth int) float64 {
	if _, e := c.BestView(); e >= x.t {
		return 0
	}
	cost := 0.0
	for n, j := range c.UnprobedView() {
		if cj := 1 + x.remaining(c, j, depth+1); n == 0 || cj < cost {
			cost = cj
		}
	}
	return cost
}

// release hands the shells' scratches back to the pool.
func (x *expectimin) release() {
	for _, c := range x.shells {
		c.Release()
	}
}
