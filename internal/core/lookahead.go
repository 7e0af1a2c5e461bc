package core

import (
	"context"
	"sync"
	"time"
)

// Overlapper is a Prober whose probes can run while the loop computes.
// With one the loop starts the probe it needs, and until the answer is
// in works out which probe it will most likely want after it: when
// starting the database that most support values of the head's RD lead
// the policy to is expected to waste at most maxDissent of a search,
// that database's probe is started too. What is folded, and in what
// order, stays the policy's decision on the observed value, so the
// trajectory is the sequential one; a prediction only moves the moment
// a probe is sent.
//
// A prediction misses when the answer is one of the outcomes that end
// the loop or lead elsewhere, and also when a backend answers with a
// relevancy between two support values, or a failed probe collapses to
// 0, which need not be on the support at all. The probe started early
// is then wasted only if the loop never picks its database later: Drain
// cancels it, never waits for it.
type Overlapper interface {
	Prober
	// Latency is how long database i's probes have recently taken, or 0
	// when that is not known.
	Latency(i int) time.Duration
	// Start begins database i's probe without waiting for it. Wait
	// collects the answer.
	Start(ctx context.Context, i int)
	// Answered reports, without blocking, whether the probe Start began
	// for database i has finished.
	Answered(i int) bool
}

// maxDissent is the expected waste, in searches, that the lookahead
// accepts when it starts a successor: an outcome that ends the loop wastes
// the start in full, one that leads to another database wastes missWeight
// of it. Pinned, with missWeight at 1, by a replay sweep on the
// benchmark's slow-probe workload (EXPERIMENTS.md, E-2B): 0.05, 0.1, 0.2
// and 0.3 against the unanimity rule it replaced, keeping the largest
// value whose probes_per_query stays within +0.5 %, a quarter of the
// benchmark's bound.
const maxDissent = 0.2

// missWeight is the share of a search that a start is reckoned to waste
// when the answer leads the loop to another database: the loop may still
// pick the started database at a later step. On the slow-probe population,
// in states no outcome stops where the leader holds 0.5–0.8 of the mass,
// two thirds of such misses are picked later, and from the fifth step on
// the leader in those states goes unpicked in 9 of 645. Pinned by a
// slow-probe sweep over 1, 0.667, 0.6, 0.55 and 0.5 (EXPERIMENTS.md,
// E-2C): the smallest whose probes_per_query stays within +0.5 % and whose
// waste on the golden trajectories stays under TestGoldenTrajectories'
// bound of 2 % of steps. At 1 the rule is the agreement rule it replaced,
// a start once outcomes carrying 1 − maxDissent of the mass lead to it.
const missWeight = 0.55

// leaderNeeds is the mass the leading database must gather for its start
// to be expected to waste at most maxDissent, when outcomes carrying ended
// of the mass end the loop and the rest of what does not lead to it leads
// elsewhere: ended + missWeight·(1 − ended − lead) ≤ maxDissent.
func leaderNeeds(ended float64) float64 {
	return 1 - ended - (maxDissent-ended)/missWeight
}

// The loop thinks behind a probe when the backend's recent latency is
// more than thinkRatio times what the thought is reckoned to cost: the
// rank of the step just taken plus thinkFixed. A lookahead is one
// hypothesis per support value and then one Rank(·, t, 1) on a rebuilt
// state per outcome, most probable first, until one database has the
// mass leaderNeeds asks for or none can reach it. Measured on the
// benchmark's slow-probe population (EXPERIMENTS.md, E-2C, on a 2-vCPU
// host) that is 2.7 ranks and 430–490 µs on average against 106–118 µs
// for a step's own rank — about four ranks. The agreement rule before it
// took 2.0 ranks and 310–360 µs in the same runs: a start now settles as
// soon as 0.64 of the mass agrees, but a lookahead that finds no leader
// gives up only once none can reach 0.64, not 0.8, and more of them run
// on to a start. thinkFixed stands for what no rank time shows, the
// probe's goroutine and channel, the yield and filling the second shell,
// 9 µs per lookahead on steps whose rank takes one. At a ratio of eight
// the average thought is over in half a round trip at the gate's edge
// and in a twentieth of one at the typical step, and the longest about
// when the answer arrives, which also ends it. A backend that answers
// from memory (tens of microseconds, against a rank of a hundred) never
// starts one, and neither does a step whose rank alone takes
// milliseconds of a ten-millisecond probe: on slow-probe 36–44 steps in
// 10 200, ranked in about 2 ms each.
const (
	thinkRatio = 8
	thinkFixed = 10 * time.Microsecond
)

// AheadWork counts what one selection's lookaheads came to. Every one
// started ends as exactly one of the five.
type AheadWork struct {
	// Certain counts lookaheads that started the next database's probe
	// with no outcome seen to end the loop or to lead elsewhere: the
	// outcomes they ranked all led there, and those left unranked carry
	// at most maxDissent of the mass.
	Certain int
	// Probable counts the other starts: outcomes seen to end the loop or
	// to lead elsewhere, or more than maxDissent of the mass left
	// unranked, with the start's expected waste within maxDissent all the
	// same.
	Probable int
	// Disagreed counts those where no database could gather the mass
	// leaderNeeds asks for.
	Disagreed int
	// Stops counts those where outcomes carrying more than maxDissent of
	// the mass reach the threshold, so no next probe is likely enough.
	Stops int
	// Abandoned counts those the head's answer cut short.
	Abandoned int
	// Time is the wall time they took, all of it inside the probe stage.
	Time time.Duration
}

// Ahead returns the lookahead work counted since the selection was
// filled.
func (s *Selection) Ahead() AheadWork { return s.ahead }

// lookahead is the state probableNext works on: a second selection shell
// to rank hypothetical next states on, kept apart from the one the loop
// is folding probes into, the outcomes still to rank, and the mass each
// database has gathered.
type lookahead struct {
	shell Selection
	order []int
	mass  []float64
}

var lookaheadPool = sync.Pool{New: func() any { return new(lookahead) }}

func (la *lookahead) release() {
	la.shell.Release()
	lookaheadPool.Put(la)
}

// probableNext reports the database ranker picks after head's probe, if
// starting it is expected to waste at most maxDissent of a search over the
// outcomes of head's RD: those that end the selection count in full, those
// that lead to another database at missWeight, and those not yet ranked as
// leading elsewhere — exact for Greedy, whose Rank fails on every outcome
// of one probe or on none. It asks answered before each outcome and gives
// up as soon as the real answer is in. s is left as it was, RankWork
// included: those counts describe the critical path.
func (la *lookahead) probableNext(s *Selection, ranker Ranker, head int, t float64, answered func() bool) (next int, ok bool) {
	start := time.Now()
	work := s.work
	defer func() {
		s.work = work
		s.ahead.Time += time.Since(start)
	}()
	rd := s.RD(head)
	n := rd.Len()
	// Which outcomes stop the loop? The one-factor overlay answers that
	// per value without a second state. A probe started for one of them
	// is wasted in full, and past maxDissent of their mass no database
	// can be started.
	la.order = la.order[:0]
	stopped, rest := 0.0, 0.0
	for vi := 0; vi < n; vi++ {
		if answered() {
			s.ahead.Abandoned++
			return 0, false
		}
		old := s.beginHypothesisIdx(head, vi)
		_, e := s.best()
		s.endHypothesisIdx(head, old)
		if e < t {
			la.order = append(la.order, vi)
			rest += rd.Prob(vi)
			continue
		}
		if stopped += rd.Prob(vi); stopped > maxDissent {
			s.ahead.Stops++
			return 0, false
		}
	}
	// The others go most probable first (ties to the lower index), so the
	// mass is decided in as few ranks as it can be.
	for x := 1; x < len(la.order); x++ {
		vi := la.order[x]
		y := x
		for ; y > 0 && rd.Prob(la.order[y-1]) < rd.Prob(vi); y-- {
			la.order[y] = la.order[y-1]
		}
		la.order[y] = vi
	}
	la.mass = growFloats(la.mass, s.Len())
	clear(la.mass)
	la.shell.Reuse(s)
	// An outcome Rank finds nothing to pick after ends the loop too, so
	// its mass joins the stopping mass in ended.
	ended := stopped
	need := leaderNeeds(ended)
	next, lead, dissent := -1, 0.0, stopped > 0
	for _, vi := range la.order {
		if answered() {
			s.ahead.Abandoned++
			return 0, false
		}
		// Each outcome is a child of s's state, not of the outcome before
		// it: that is the node the real step finds when the answer is vi's.
		la.shell.memo = s.memo
		la.shell.ApplyProbe(head, rd.Value(vi))
		dbs, _, err := ranker.Rank(&la.shell, t, 1)
		p := rd.Prob(vi)
		rest -= p
		if err != nil {
			dissent = true
			ended += p
			need = leaderNeeds(ended)
		} else {
			d := dbs[0]
			dissent = dissent || (next >= 0 && d != next)
			if la.mass[d] += p; next < 0 || la.mass[d] > lead {
				next, lead = d, la.mass[d]
			}
		}
		if lead >= need {
			if !dissent && rest <= maxDissent {
				s.ahead.Certain++
			} else {
				s.ahead.Probable++
			}
			return next, true
		}
		if lead+rest < need {
			break
		}
	}
	s.ahead.Disagreed++
	return 0, false
}
