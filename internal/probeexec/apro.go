package probeexec

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/obs/span"
)

// probeFunc issues the live probe to database i under ctx.
type probeFunc func(ctx context.Context, i int) (float64, error)

// APro runs the adaptive probing loop (core.AProContext, paper Figure
// 11) with every probe going through the executor — breaker, pool,
// timeout. With a core.Ranker policy one thing may start probes before
// the loop asks for them: the loop's own lookahead, which while one
// probe is in flight works out whether outcomes carrying most of its
// RD's mass lead to the same next database, and from the seventh probe
// on starts every database an outcome leads to and the ranking's
// runners-up (core.Overlapper), each only into an idle pool slot. The
// loop still folds exactly the database the policy picks each round, so
// the trajectory is the sequential one; a probe started early and picked
// later has its latency already (partly) paid, and one never picked is
// cancelled when the selection finishes and counted as speculative
// waste.
//
// name maps a database index to the backend name used for breaker and
// latency accounting. Probe failures and breaker rejections
// degrade the result (see core.AProContext); the returned error is
// reserved for bad arguments, policy failures and caller cancellation.
func (e *Executor) APro(ctx context.Context, s *core.Selection, name func(i int) string, probe probeFunc, policy core.Policy, t float64, maxProbes int) (core.Outcome, error) {
	if probe == nil || name == nil {
		return core.Outcome{}, fmt.Errorf("probeexec: APro needs a probe function and a name mapping")
	}
	var out core.Outcome
	p := &prober{e: e, name: name, probe: probe, sp: span.FromContext(ctx)}
	err := core.AProContext(ctx, s, p, policy, t, maxProbes, &out)
	if err == nil && out.Degraded {
		e.degraded.Inc()
	}
	return out, err
}

// prober is one selection's view of the executor: core.Overlapper over
// Executor.Probe, plus the background probes in flight.
type prober struct {
	e     *Executor
	name  func(i int) string
	probe probeFunc
	sp    *span.Span // selection root (nil when tracing is off)

	// Background probes run under one context for the whole selection, so
	// Drain stops them all; pending holds those not yet waited for.
	specCtx context.Context
	cancel  context.CancelFunc
	pending map[int]chan probeResult
	// headOut is set between the Start of the probe the loop waits on
	// next and its Wait: a Start in that window is speculative.
	headOut bool
}

// probeResult is one probe's answer. ran reports whether the probe
// function was called: a probe the breaker rejected, or cancelled while
// it waited for a pool slot, never reached its backend.
type probeResult struct {
	v   float64
	err error
	ran bool
}

// run probes database i through the executor, in a pool slot the caller
// already holds when held. Executor.probe calls the probe function on
// run's goroutine, so ran needs no synchronisation.
func (p *prober) run(ctx context.Context, i int, held bool) probeResult {
	var r probeResult
	r.v, r.err = p.e.probe(ctx, p.name(i), func(c context.Context) (float64, error) {
		r.ran = true
		return p.probe(c, i)
	}, held)
	return r
}

// Latency implements core.Overlapper with the executor's reading for
// database i's backend.
func (p *prober) Latency(i int) time.Duration { return p.e.latency(p.name(i)) }

// Start implements core.Overlapper: it probes database i in the
// background, unless that is under way already. The answer is delivered
// to a buffered channel, so Answered can ask for it without blocking.
// The loop starts the probe it waits on next and then, behind it, the
// databases its lookahead expects to want after it: one, or on a wide
// step several. Those speculative starts take only an idle pool slot.
// When every slot is held the start is dropped, and Wait probes the
// database if the loop asks for it, so speculation never queues ahead of
// another selection's head.
func (p *prober) Start(ctx context.Context, i int) {
	early := p.headOut
	p.headOut = true
	if _, ok := p.pending[i]; ok {
		return
	}
	if early && !p.e.pool.tryAcquire() {
		return
	}
	if p.pending == nil {
		p.specCtx, p.cancel = context.WithCancel(ctx)
		p.pending = make(map[int]chan probeResult)
	}
	ch := make(chan probeResult, 1)
	p.pending[i] = ch
	go func() { ch <- p.run(p.specCtx, i, early) }()
	if early {
		p.sp.AddEvent("speculative_prefetch", "backend", p.name(i))
	}
}

// Answered implements core.Overlapper.
func (p *prober) Answered(i int) bool { return len(p.pending[i]) > 0 }

// Wait collects database i's background probe, or probes it now on the
// caller's goroutine.
func (p *prober) Wait(ctx context.Context, i int) (float64, error) {
	p.headOut = false
	var r probeResult
	if ch, ok := p.pending[i]; ok {
		r = <-ch
		delete(p.pending, i)
	} else {
		r = p.run(ctx, i, false)
	}
	if r.err != nil && ctx.Err() == nil {
		p.sp.AddEvent("backend_excluded", "backend", p.name(i), "error", r.err.Error())
	}
	return r.v, r.err
}

// Drain cancels the background probes the loop never picked and waits
// for them, so every probe has returned — and its pool slot is released
// — before APro does. Those that reached their backend are counted as
// speculative waste; one cancelled before it did cost no search.
func (p *prober) Drain() {
	if p.cancel == nil {
		return
	}
	p.cancel()
	if len(p.pending) > 0 {
		p.sp.AddEvent("speculation_cancelled", "count", strconv.Itoa(len(p.pending)))
	}
	for _, ch := range p.pending {
		if r := <-ch; r.ran {
			p.e.specWaste.Inc()
		}
	}
}
