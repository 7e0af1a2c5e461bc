package core

import (
	"context"
	"sync"
	"time"
)

// Overlapper is a Prober whose probes can run while the loop computes.
// With one the loop starts the probe it needs, and until the answer is
// in works out which probe it will most likely want after it: when the
// support values of the head's RD that lead the policy to one and the
// same database carry at least 1 − maxDissent of the RD's mass, that
// database's probe is started too. What is folded, and in what order,
// stays the policy's decision on the observed value, so the trajectory
// is the sequential one; a prediction only moves the moment a probe is
// sent.
//
// A prediction misses when the answer is one of the outcomes that stop
// the loop or lead elsewhere — at most maxDissent of the mass — and also
// when a backend answers with a relevancy between two support values, or
// a failed probe collapses to 0, which need not be on the support at
// all. The probe started early is then wasted only if the loop never
// picks its database later: Drain cancels it, never waits for it.
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

// maxDissent is the share of the head's RD mass that may stop the loop
// or lead to another database when the lookahead starts a successor.
// Pinned by a replay sweep on the benchmark's slow-probe workload
// (EXPERIMENTS.md, E-2B): 0.05, 0.1, 0.2 and 0.3 against the unanimity
// rule it replaced, keeping the largest value whose probes_per_query
// stays within +0.5 %, a quarter of the benchmark's bound.
const maxDissent = 0.2

// The loop thinks behind a probe when the backend's recent latency is
// more than thinkRatio times what the thought is reckoned to cost: the
// rank of the step just taken plus thinkFixed. A lookahead is one
// hypothesis per support value and then one Rank(·, t, 1) on a rebuilt
// state per outcome, most probable first, until one database has
// 1 − maxDissent of the mass or none can reach it. Measured on the
// benchmark's slow-probe population (EXPERIMENTS.md, E-2B, on a 2-vCPU
// host) that is 2.05 ranks and 401 µs on average against 163 µs for a
// step's own rank — about two and a half ranks; the unanimity rule before
// it took 3.2 ranks and 498 µs against 179 µs in the same runs.
// thinkFixed stands for what no rank time shows, the probe's goroutine
// and channel, the yield and filling the second shell, 9 µs per
// lookahead on steps whose rank takes one. At a ratio of eight the
// average thought is over in under a third of a round trip and the
// longest about when the answer arrives, which also ends it. A backend
// that answers from memory (tens of microseconds, against a rank of a
// hundred) never starts one, and neither does a step whose rank alone
// takes milliseconds of a ten-millisecond probe.
const (
	thinkRatio = 8
	thinkFixed = 10 * time.Microsecond
)

// AheadWork counts what one selection's lookaheads came to. Every one
// started ends as exactly one of the five.
type AheadWork struct {
	// Certain counts lookaheads that started the next database's probe
	// with no outcome seen to stop or to lead elsewhere: the outcomes they
	// ranked all led there, and those left unranked carry at most
	// maxDissent of the mass.
	Certain int
	// Probable counts those that started it although outcomes carrying
	// some of the mass, at most maxDissent, stop or lead elsewhere.
	Probable int
	// Disagreed counts those where no database could gather 1 − maxDissent
	// of the mass that does not stop.
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
// outcomes carrying at least 1 − maxDissent of the mass of head's RD lead
// to it, an outcome that ends the selection counting against every
// database. It asks answered before each outcome and gives up as soon as
// the real answer is in. s is left as it was, RankWork included: those
// counts describe the critical path.
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
	// is wasted, so their mass dissents, and past maxDissent of it no
	// database can gather enough.
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
	need := 1 - maxDissent
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
		} else {
			d := dbs[0]
			dissent = dissent || (next >= 0 && d != next)
			if la.mass[d] += p; next < 0 || la.mass[d] > lead {
				next, lead = d, la.mass[d]
			}
		}
		if lead >= need {
			if !dissent {
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
