package core

import (
	"context"
	"time"
)

// virtualOverlapper is an Overlapper on a virtual clock, for replaying
// the probe side of the loop deterministically. A probe takes latency of
// virtual time from the moment it is started, or waited for unstarted;
// Answered turns true once the clock has passed that, and Wait moves the
// clock there. Every rank that sweeps candidates (a memo hit does not)
// advances the clock by rankCost (virtualGreedy), so the loop's own
// compute and its lookahead's sit on the critical path as they do on a
// real host. The gate compares Latency with a wall-clock rank time,
// which is not virtual, so Latency reads an hour when think is set and
// every step with the budget thinks; without think it reads 0 and the
// loop probes one database at a time.
type virtualOverlapper struct {
	truth             func(i int) float64
	think             bool
	latency, rankCost time.Duration

	now     time.Duration
	sent    map[int]time.Duration // when each probe not yet waited for was started
	headOut bool
	// searches counts probes sent to a backend, orphans those the loop
	// never waited for, and early those started while a head was out.
	searches, orphans, early int
}

func (v *virtualOverlapper) Latency(int) time.Duration {
	if v.think {
		return time.Hour
	}
	return 0
}

func (v *virtualOverlapper) Start(_ context.Context, i int) {
	if v.headOut {
		v.early++
	}
	v.headOut = true
	if _, ok := v.sent[i]; !ok {
		v.sent[i] = v.now
		v.searches++
	}
}

func (v *virtualOverlapper) Answered(i int) bool {
	at, ok := v.sent[i]
	return ok && v.now >= at+v.latency
}

func (v *virtualOverlapper) Wait(_ context.Context, i int) (float64, error) {
	v.headOut = false
	at, ok := v.sent[i]
	if !ok {
		at = v.now
		v.searches++
	}
	delete(v.sent, i)
	v.now = max(v.now, at+v.latency)
	return v.truth(i), nil
}

func (v *virtualOverlapper) Drain() {
	v.orphans += len(v.sent)
	clear(v.sent)
}

// virtualGreedy is Greedy charging v's clock rankCost for every rank that
// sweeps a candidate, read from the tally of the selection it ranks on.
type virtualGreedy struct {
	Greedy
	v *virtualOverlapper
}

func (g virtualGreedy) Rank(s *Selection, t float64, m int) ([]int, []float64, error) {
	swept := s.work.Swept
	dbs, us, err := g.Greedy.Rank(s, t, m)
	if s.work.Swept != swept {
		g.v.now += g.v.rankCost
	}
	return dbs, us, err
}

// VirtualRun is one replay on the virtual clock: its outcome, the clock
// when it ended, the probes sent to a backend, those the loop never
// waited for, and those started while a head was out.
type VirtualRun struct {
	Out                      Outcome
	Elapsed                  time.Duration
	Searches, Orphans, Early int
}

// ReplayVirtual runs APro on s under Greedy through a virtual clock, the
// lookahead starting wide once wideAt steps are folded. It is exported
// for replay_test.go, whose population comes from packages that import
// this one.
func ReplayVirtual(s *Selection, truth func(i int) float64, t float64, think bool, wideAt int, latency, rankCost time.Duration) (VirtualRun, error) {
	v := &virtualOverlapper{truth: truth, think: think, latency: latency, rankCost: rankCost, sent: map[int]time.Duration{}}
	var r VirtualRun
	err := aproContext(context.Background(), s, v, virtualGreedy{v: v}, t, -1, wideAt, &r.Out)
	r.Elapsed, r.Searches, r.Orphans, r.Early = v.now, v.searches, v.orphans, v.early
	return r, err
}
