package probeexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// ErrBreakerOpen is returned (wrapped) when a backend's circuit
// breaker rejects a probe without contacting the backend.
var ErrBreakerOpen = errors.New("probeexec: circuit breaker open")

// Config tunes an Executor.
type Config struct {
	// Limits bounds probe concurrency (see Limits).
	Limits Limits
	// HedgeAfter, when positive, launches a second attempt for a probe
	// that has not answered after this long; the first answer wins and
	// the loser is cancelled. 0 disables hedging.
	HedgeAfter time.Duration
	// ProbeTimeout bounds each probe (including its hedge) end to end;
	// 0 means no per-probe deadline beyond the caller's context.
	ProbeTimeout time.Duration
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// Metrics receives executor metrics; nil disables them.
	Metrics *obs.Registry
}

// Executor runs probes with pooling, breakers and hedging. It is safe
// for concurrent use by any number of selections; breakers and pool
// slots are shared across them, keyed by backend name.
type Executor struct {
	cfg  Config
	pool *pool
	now  func() time.Time

	mu       sync.Mutex
	backends map[string]*backendState

	hedges    *obs.Counter
	hedgeWins *obs.Counter
	degraded  *obs.Counter
	specWaste *obs.Counter
}

// NewExecutor builds an executor from cfg, registering its metrics
// (mp_probe_inflight, mp_breaker_state per backend, mp_probe_hedges_total,
// mp_selections_degraded_total) in cfg.Metrics.
func NewExecutor(cfg Config) *Executor {
	reg := cfg.Metrics
	e := &Executor{
		cfg:       cfg,
		pool:      newPool(cfg.Limits, reg),
		now:       time.Now,
		backends:  make(map[string]*backendState),
		hedges:    reg.Counter("mp_probe_hedges_total", nil),
		hedgeWins: reg.Counter("mp_probe_hedge_wins_total", nil),
		degraded:  reg.Counter("mp_selections_degraded_total", nil),
		specWaste: reg.Counter("mp_probes_speculative_cancelled_total", nil),
	}
	reg.Help("mp_probe_hedges_total", "Hedged (second) probe attempts launched after HedgeAfter.")
	reg.Help("mp_probe_hedge_wins_total", "Probes whose hedged attempt answered before the original.")
	reg.Help("mp_selections_degraded_total", "Selections completed with one or more backends excluded.")
	reg.Help("mp_probes_speculative_cancelled_total", "Probes started early — a lookahead's certain successor — and cancelled because the selection never asked for them.")
	reg.Help("mp_breaker_state", "Circuit-breaker state per backend: 0 closed, 1 half-open, 2 open.")
	return e
}

// backendState is what the executor knows about one backend: its
// circuit breaker and how long its probes have been taking.
type backendState struct {
	br *breaker
	// latency is a running mean (weight 1/8 on the newest) of the wall
	// time of the backend's successful probe calls, pool wait excluded,
	// in nanoseconds; 0 until the first one. Concurrent probes may drop
	// each other's sample, which a mean that is only ever compared with
	// an order of magnitude does not notice.
	latency atomic.Int64
}

func (b *backendState) observeLatency(d time.Duration) {
	old := b.latency.Load()
	if old == 0 {
		b.latency.Store(int64(d))
		return
	}
	b.latency.Store(old + (int64(d)-old)/8)
}

// backendFor returns the state for name, creating it (and the breaker's
// state gauge) on first use.
func (e *Executor) backendFor(name string) *backendState {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.backends[name]
	if !ok {
		b = &backendState{br: newBreaker(e.cfg.Breaker, e.now)}
		e.backends[name] = b
		e.cfg.Metrics.GaugeFunc("mp_breaker_state", obs.Labels{"backend": name}, func() float64 {
			return float64(b.br.State())
		})
	}
	return b
}

// BreakerState reports the current breaker state for a backend
// (BreakerClosed for backends never probed).
func (e *Executor) BreakerState(name string) BreakerState {
	e.mu.Lock()
	b := e.backends[name]
	e.mu.Unlock()
	if b == nil {
		return BreakerClosed
	}
	return b.br.State()
}

// Latency reports how long the named backend's successful probes have
// recently taken (0 for a backend that has not answered one yet).
func (e *Executor) Latency(name string) time.Duration {
	e.mu.Lock()
	b := e.backends[name]
	e.mu.Unlock()
	if b == nil {
		return 0
	}
	return time.Duration(b.latency.Load())
}

// Inflight returns the number of probes currently in flight.
func (e *Executor) Inflight() int64 { return e.pool.Inflight() }

// attemptResult is one attempt's answer.
type attemptResult struct {
	v     float64
	err   error
	hedge bool
}

// Probe runs fn against the named backend under the executor's
// resilience machinery: the breaker must admit it, a pool slot bounds
// it, ProbeTimeout caps it, and with hedging enabled a second attempt
// races the first after HedgeAfter. The winning attempt's answer is
// returned; the loser is cancelled and its (eventual) result
// discarded. One outcome per call is fed back to the breaker —
// caller cancellation is recorded as neutral, not as a backend
// failure.
func (e *Executor) Probe(ctx context.Context, name string, fn func(ctx context.Context) (float64, error)) (float64, error) {
	ctx, ps := span.Start(ctx, "probe")
	ps.SetAttr("backend", name)
	be := e.backendFor(name)
	br := be.br
	stateBefore := br.State()
	if !br.Allow() {
		err := fmt.Errorf("probeexec: %s: %w", name, ErrBreakerOpen)
		ps.AddEvent("breaker_rejected", "state", br.State().String())
		ps.EndErr(err)
		return 0, err
	}
	parent := ctx
	if e.cfg.ProbeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.ProbeTimeout)
		defer cancel()
	}
	attemptCtx, cancelAttempts := context.WithCancel(ctx)
	defer cancelAttempts()

	// record feeds the breaker and closes the probe span, emitting a
	// breaker_transition event when this probe's outcome moved the
	// state machine.
	record := func(o probeOutcome, err error) {
		br.Record(o)
		if after := br.State(); after != stateBefore {
			ps.AddEvent("breaker_transition", "from", stateBefore.String(), "to", after.String())
		}
		ps.EndErr(err)
	}

	// Buffered to both attempts: a loser can always deliver and exit.
	results := make(chan attemptResult, 2)
	launch := func(hedge bool) {
		go func() {
			actx, as := span.Start(attemptCtx, "probe.attempt")
			if hedge {
				as.SetAttr("hedge", "true")
			}
			release, err := e.pool.acquire(actx, name)
			if err != nil {
				as.EndErr(err)
				results <- attemptResult{err: err, hedge: hedge}
				return
			}
			called := time.Now()
			v, err := fn(actx)
			if err == nil {
				be.observeLatency(time.Since(called))
			}
			// The slot goes back before the answer goes out: whoever
			// receives it — Probe's caller, a selection's Drain — may count
			// on the pool no longer holding anything for this attempt.
			release()
			as.EndErr(err)
			results <- attemptResult{v: v, err: err, hedge: hedge}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if e.cfg.HedgeAfter > 0 {
		t := time.NewTimer(e.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	outstanding := 1
	var firstErr error
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.hedge {
					e.hedgeWins.Inc()
					ps.SetAttr("hedge_won", "true")
				}
				record(probeSuccess, nil)
				return r.v, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding > 0 {
				// The other attempt may still succeed.
				continue
			}
			record(classify(parent, firstErr), firstErr)
			return 0, firstErr
		case <-hedgeC:
			hedgeC = nil
			outstanding++
			e.hedges.Inc()
			ps.AddEvent("hedge_launched")
			launch(true)
		}
	}
}

// classify maps a probe error to its breaker outcome: errors caused by
// the caller's own context going away are neutral; everything else —
// including a ProbeTimeout deadline, which is the backend being slow —
// counts against the backend.
func classify(parent context.Context, err error) probeOutcome {
	if parent.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return probeCancelled
	}
	return probeFailure
}
