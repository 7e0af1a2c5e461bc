package core

import (
	"context"
	"sync"
	"time"
)

// Overlapper is a Prober whose probes can run while the loop computes.
// With one the loop starts the probe it needs, and until the answer is
// in works out whether it already knows the probe after it: when no
// support value of the head's RD reaches t, and the policy picks one and
// the same database after every one of them, that database's probe is
// started too. What is folded, and in what order, stays the policy's
// decision on the observed value, so the trajectory is the sequential
// one; a prediction only moves the moment a probe is sent.
//
// Two things can make a prediction miss. It is unanimous over the RD's
// support, and a backend may answer with a relevancy between two
// support values; and a failed probe collapses to 0, which need not be
// on the support at all. Either way the policy may pick another
// database, and the one started early is cancelled by Drain, never
// waited for.
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

// The loop thinks behind a probe when the backend's recent latency is
// more than thinkRatio times what the thought is reckoned to cost: the
// rank of the step just taken plus thinkFixed. A lookahead is one
// hypothesis per support value and then one Rank(·, t, 1) on a rebuilt
// state per value until two disagree. Measured on the benchmark's
// slow-probe population (CHANGES.md, PR 23; PR 19 read 426 and 115 µs)
// that is 329 µs on average against 106 µs for a step's own rank — about
// three ranks — and up to one rank per support value, nine on average,
// when the verdict is "certain"; thinkFixed stands for what no rank time
// shows, the probe's goroutine and channel, the yield and filling the
// second shell, 9 µs per lookahead on steps whose rank takes one. At a
// ratio of eight the average thought is over in under half a round trip
// and the longest about when the answer arrives, which also ends it. A
// backend that answers from memory (tens of microseconds, against a rank
// of a hundred) never starts one, and neither does a step whose rank
// alone takes milliseconds of a ten-millisecond probe.
const (
	thinkRatio = 8
	thinkFixed = 10 * time.Microsecond
)

// AheadWork counts what one selection's lookaheads came to. Every one
// started ends as exactly one of the four.
type AheadWork struct {
	// Certain counts lookaheads that found the next database and started
	// its probe.
	Certain int
	// Disagreed counts those where two outcomes led to different
	// databases (or to none).
	Disagreed int
	// Stops counts those where some outcome reaches the threshold, so a
	// next probe is not certain at all.
	Stops int
	// Abandoned counts those the head's answer cut short.
	Abandoned int
	// Time is the wall time they took, all of it inside the probe stage.
	Time time.Duration
}

// Ahead returns the lookahead work counted since the selection was
// filled.
func (s *Selection) Ahead() AheadWork { return s.ahead }

// lookahead is the state certainNext works on: a second selection shell
// to rank hypothetical next states on, kept apart from the one the loop
// is folding probes into.
type lookahead struct {
	shell Selection
}

var lookaheadPool = sync.Pool{New: func() any { return new(lookahead) }}

func (la *lookahead) release() {
	la.shell.Release()
	lookaheadPool.Put(la)
}

// certainNext reports the database ranker picks after head's probe, if
// that is the same whatever support value the probe returns and none of
// them ends the selection. It asks answered before each outcome and
// gives up as soon as the real answer is in. s is left as it was, RankWork
// included: those counts describe the critical path.
func (la *lookahead) certainNext(s *Selection, ranker Ranker, head int, t float64, answered func() bool) (next int, ok bool) {
	start := time.Now()
	work := s.work
	defer func() {
		s.work = work
		s.ahead.Time += time.Since(start)
	}()
	rd := s.RD(head)
	n := rd.Len()
	// Does any outcome stop the loop? The one-factor overlay answers that
	// per value without a second state, and one in five lookaheads ends
	// here.
	for vi := 0; vi < n; vi++ {
		if answered() {
			s.ahead.Abandoned++
			return 0, false
		}
		old := s.beginHypothesisIdx(head, vi)
		_, e := s.best()
		s.endHypothesisIdx(head, old)
		if e >= t {
			s.ahead.Stops++
			return 0, false
		}
	}
	// The extreme values move the state furthest, so they go first —
	// lowest, highest, then inward — and most disagreements show after
	// two ranks.
	la.shell.Reuse(s)
	next = -1
	for x := 0; x < n; x++ {
		if answered() {
			s.ahead.Abandoned++
			return 0, false
		}
		vi := x / 2
		if x%2 == 1 {
			vi = n - 1 - vi
		}
		// Each outcome is a child of s's state, not of the outcome before
		// it: that is the node the real step finds when the answer is vi's.
		la.shell.memo = s.memo
		la.shell.ApplyProbe(head, rd.Value(vi))
		dbs, _, err := ranker.Rank(&la.shell, t, 1)
		if err != nil || (next >= 0 && dbs[0] != next) {
			s.ahead.Disagreed++
			return 0, false
		}
		next = dbs[0]
	}
	s.ahead.Certain++
	return next, true
}
