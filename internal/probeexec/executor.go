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

// errBreakerOpen is returned (wrapped) when a backend's circuit
// breaker rejects a probe without contacting the backend.
var errBreakerOpen = errors.New("probeexec: circuit breaker open")

// Config tunes an Executor.
type Config struct {
	// ProbeTimeout bounds each probe end to end; 0 means no per-probe
	// deadline beyond the caller's context.
	ProbeTimeout time.Duration
	// Metrics receives executor metrics; nil disables them.
	Metrics *obs.Registry
}

// Executor runs probes through one pool of maxInflight slots and a
// circuit breaker per backend. It is safe for concurrent use by any
// number of selections; breakers and pool slots are shared across them,
// keyed by backend name.
type Executor struct {
	cfg  Config
	pool *pool

	mu       sync.Mutex
	backends map[string]*backendState

	degraded  *obs.Counter
	specWaste *obs.Counter
}

// NewExecutor builds an executor from cfg, registering its metrics
// (mp_probe_inflight, mp_breaker_state per backend,
// mp_selections_degraded_total) in cfg.Metrics.
func NewExecutor(cfg Config) *Executor { return newExecutor(cfg, maxInflight) }

// newExecutor is NewExecutor with a pool of slots probe slots.
func newExecutor(cfg Config, slots int) *Executor {
	reg := cfg.Metrics
	e := &Executor{
		cfg:       cfg,
		pool:      newPool(slots, reg),
		backends:  make(map[string]*backendState),
		degraded:  reg.Counter("mp_selections_degraded_total", nil),
		specWaste: reg.Counter("mp_probes_speculative_cancelled_total", nil),
	}
	reg.Help("mp_selections_degraded_total", "Selections completed with one or more backends excluded.")
	reg.Help("mp_probes_speculative_cancelled_total", "Probes a lookahead started early, into idle slots behind the probe in flight, that reached their backend and were cancelled because the selection never asked for them.")
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
		b = &backendState{br: newBreaker(time.Now)}
		e.backends[name] = b
		e.cfg.Metrics.GaugeFunc("mp_breaker_state", obs.Labels{"backend": name}, func() float64 {
			return float64(b.br.State())
		})
	}
	return b
}

// latency reports how long the named backend's successful probes have
// recently taken (0 for a backend that has not answered one yet).
func (e *Executor) latency(name string) time.Duration {
	e.mu.Lock()
	b := e.backends[name]
	e.mu.Unlock()
	if b == nil {
		return 0
	}
	return time.Duration(b.latency.Load())
}

// Probe runs fn against the named backend on the caller's goroutine,
// inside one "probe" span that fn's context carries: the breaker must
// admit it, a pool slot bounds it and ProbeTimeout caps it. Its outcome
// is fed back to the breaker — caller cancellation is recorded as
// neutral, not as a backend failure — and the slot is free again before
// Probe returns.
func (e *Executor) Probe(ctx context.Context, name string, fn func(ctx context.Context) (float64, error)) (float64, error) {
	return e.probe(ctx, name, fn, false)
}

// probe is Probe; held reports that the caller already claimed the pool
// slot (pool.tryAcquire), which probe then releases however it ends.
func (e *Executor) probe(ctx context.Context, name string, fn func(ctx context.Context) (float64, error), held bool) (float64, error) {
	ctx, ps := span.Start(ctx, "probe")
	ps.SetAttr("backend", name)
	be := e.backendFor(name)
	br := be.br
	stateBefore := br.State()
	if !br.Allow() {
		err := fmt.Errorf("probeexec: %s: %w", name, errBreakerOpen)
		ps.AddEvent("breaker_rejected", "state", br.State().String())
		ps.EndErr(err)
		if held {
			e.pool.release()
		}
		return 0, err
	}
	parent := ctx
	if e.cfg.ProbeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.ProbeTimeout)
		defer cancel()
	}
	v, err := e.call(ctx, be, fn, held)
	outcome := probeSuccess
	if err != nil {
		v, outcome = 0, classify(parent, err)
	}
	br.Record(outcome)
	if after := br.State(); after != stateBefore {
		ps.AddEvent("breaker_transition", "from", stateBefore.String(), "to", after.String())
	}
	ps.EndErr(err)
	return v, err
}

// call runs fn in a pool slot — claimed here unless held — timing it for
// the backend's latency reading when it succeeds. A probe whose context
// ended before it got to its backend does not go.
func (e *Executor) call(ctx context.Context, be *backendState, fn func(ctx context.Context) (float64, error), held bool) (float64, error) {
	if !held {
		if err := e.pool.acquire(ctx); err != nil {
			return 0, err
		}
	}
	defer e.pool.release()
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("probeexec: before the probe: %w", err)
	}
	called := time.Now()
	v, err := fn(ctx)
	if err == nil {
		be.observeLatency(time.Since(called))
	}
	return v, err
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
