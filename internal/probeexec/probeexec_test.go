package probeexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/leakcheck"
	"metaprobe/internal/obs"
	"metaprobe/internal/stats"
)

func TestBreakerTransitions(t *testing.T) {
	if breakerFailures != 5 || breakerCooldown != 30*time.Second {
		t.Fatalf("breaker opens after %d failures for %v, want 5 for 30s", breakerFailures, breakerCooldown)
	}
	now := time.Unix(0, 0)
	b := newBreaker(func() time.Time { return now })

	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}
	// Failures below the threshold keep it closed; a success resets the
	// count, and a cancelled probe neither resets nor adds to it.
	for i := 0; i < breakerFailures-1; i++ {
		b.Record(probeFailure)
	}
	b.Record(probeSuccess)
	for i := 0; i < breakerFailures-1; i++ {
		b.Record(probeFailure)
	}
	b.Record(probeCancelled)
	if b.State() != BreakerClosed {
		t.Fatalf("state after %d failures, a success, %d failures and a cancellation = %v, want closed",
			breakerFailures-1, breakerFailures-1, b.State())
	}
	// The fifth consecutive failure opens it.
	b.Record(probeFailure)
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", breakerFailures, b.State())
	}
	// It rejects for the whole cooldown.
	now = now.Add(breakerCooldown - time.Nanosecond)
	if b.Allow() {
		t.Fatal("open breaker admitted a probe before the cooldown ended")
	}
	// After the cooldown, exactly one half-open trial is admitted.
	now = now.Add(time.Nanosecond)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open trial")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe admitted while trial in flight")
	}
	// A cancelled trial releases the slot without moving the state.
	b.Record(probeCancelled)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("cancelled trial moved state to %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("slot not released after cancelled trial")
	}
	// A failed trial reopens for a full cooldown.
	b.Record(probeFailure)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatalf("failed trial should reopen; state = %v", b.State())
	}
	// A success from a probe admitted before the breaker opened does not
	// close it: only the trial does.
	b.Record(probeSuccess)
	if b.State() != BreakerOpen {
		t.Fatalf("late success moved an open breaker to %v", b.State())
	}
	// Next trial succeeds and closes the breaker.
	now = now.Add(breakerCooldown)
	if !b.Allow() {
		t.Fatal("no trial after second cooldown")
	}
	b.Record(probeSuccess)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after trial success", b.State())
	}
}

func TestPoolSaturation(t *testing.T) {
	leakcheck.Check(t)
	e := newExecutor(Config{}, 2)
	gate := make(chan struct{})
	started := make(chan struct{}, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Probe(context.Background(), "db", func(ctx context.Context) (float64, error) {
				started <- struct{}{}
				<-gate
				return 1, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Only two probes may enter; the third waits for a slot.
	<-started
	<-started
	deadline := time.After(200 * time.Millisecond)
	select {
	case <-started:
		t.Fatal("third probe ran in a pool of 2")
	case <-deadline:
	}
	if got := e.inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	close(gate)
	<-started
	wg.Wait()
	if got := e.inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d", got)
	}
}

// TestPoolSaturationDropsSpeculation: a start made while the selection's
// head is out takes a pool slot only if one is idle. With both slots of a
// 2-slot executor held by two other heads, a selection's own head queues
// for a slot, but its speculative start is dropped: nothing is pending
// for it and inflight() stays 2. When the loop asks for that database,
// Wait probes it itself, so every answer is the one the loop would have
// had. A whole selection run while the pool is full folds the inline
// trajectory.
func TestPoolSaturationDropsSpeculation(t *testing.T) {
	leakcheck.Check(t)
	e := newExecutor(Config{Metrics: obs.NewRegistry()}, 2)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	holdSlots := func() {
		held := make(chan struct{}, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Probe(context.Background(), "other", func(context.Context) (float64, error) {
					held <- struct{}{}
					<-gate
					return 1, nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		<-held
		<-held
	}
	holdSlots()
	var calls [2]atomic.Int64
	p := &prober{e: e, name: dbName, probe: func(_ context.Context, i int) (float64, error) {
		calls[i].Add(1)
		return float64(10 + i), nil
	}}
	ctx := context.Background()
	p.Start(ctx, 0) // the head queues for a slot
	p.Start(ctx, 1) // a speculative start finds none idle
	if _, ok := p.pending[1]; ok || len(p.pending) != 1 {
		t.Fatalf("pending after a speculative start into a full pool: %v", p.pending)
	}
	if got := e.inflight(); got != 2 {
		t.Fatalf("inflight = %d, want the two heads' 2", got)
	}
	close(gate)
	wg.Wait()
	for i := range calls {
		if v, err := p.Wait(ctx, i); err != nil || v != float64(10+i) {
			t.Fatalf("Wait(%d) = %v, %v", i, v, err)
		}
	}
	p.Drain()
	if calls[0].Load() != 1 || calls[1].Load() != 1 {
		t.Fatalf("probe calls %d and %d, want one each", calls[0].Load(), calls[1].Load())
	}

	// A selection that starts while two other heads hold the pool, which
	// frees up at some point during it.
	gate = make(chan struct{})
	holdSlots()
	time.AfterFunc(5*time.Millisecond, func() { close(gate) })
	rds := orphanRDs()
	truth := []float64{60, 90, 10}
	want, err := core.APro(core.NewSelectionFromRDs(rds, core.Absolute, 1), func(i int) (float64, error) { return truth[i], nil }, core.Greedy{}, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	e.farAway(len(rds))
	var started atomic.Int64
	got, err := e.APro(ctx, core.NewSelectionFromRDs(rds, core.Absolute, 1), dbName, func(_ context.Context, i int) (float64, error) {
		started.Add(1)
		time.Sleep(time.Millisecond)
		return truth[i], nil
	}, core.Greedy{}, 0.95, -1)
	wg.Wait()
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("outcome through a full pool %+v (%v), inline %+v", got, err, want)
	}
	orphans := started.Load() - int64(len(got.Steps))
	if cancelled := e.cfg.Metrics.Counter("mp_probes_speculative_cancelled_total", nil).Value(); cancelled != orphans {
		t.Errorf("%d probes never picked, mp_probes_speculative_cancelled_total = %d", orphans, cancelled)
	}
	if got := e.inflight(); got != 0 {
		t.Errorf("inflight after the selection = %d", got)
	}
}

func TestPoolAcquireHonorsContext(t *testing.T) {
	leakcheck.Check(t)
	e := newExecutor(Config{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	entered := make(chan struct{})
	go e.Probe(context.Background(), "db", func(ctx context.Context) (float64, error) {
		close(entered)
		<-gate
		return 1, nil
	})
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Probe(ctx, "db", func(ctx context.Context) (float64, error) { return 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("saturated acquire under cancelled ctx: err = %v", err)
	}
}

// TestInflightGaugeSumsExecutors: every executor on one registry — one
// per tenant in the daemon — moves the same mp_probe_inflight series, so
// it reads the process's probes in flight, and zero once none are.
func TestInflightGaugeSumsExecutors(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, e := range []*Executor{NewExecutor(Config{Metrics: reg}), NewExecutor(Config{Metrics: reg})} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Probe(context.Background(), "db", func(context.Context) (float64, error) {
				entered <- struct{}{}
				<-gate
				return 1, nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	<-entered
	g := reg.Gauge("mp_probe_inflight", nil)
	if got := g.Value(); got != 2 {
		t.Errorf("mp_probe_inflight = %v with one probe blocked on each of two executors, want 2", got)
	}
	close(gate)
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("mp_probe_inflight = %v with nothing in flight, want 0", got)
	}
}

func TestProbeBreakerOpensAndRejects(t *testing.T) {
	e := NewExecutor(Config{})
	fail := func(ctx context.Context) (float64, error) { return 0, fmt.Errorf("backend down") }
	for i := 0; i < breakerFailures; i++ {
		if _, err := e.Probe(context.Background(), "down", fail); err == nil {
			t.Fatal("want failure")
		}
	}
	if s := e.breakerState("down"); s != BreakerOpen {
		t.Fatalf("breaker = %v, want open", s)
	}
	called := false
	_, err := e.Probe(context.Background(), "down", func(ctx context.Context) (float64, error) {
		called = true
		return 1, nil
	})
	if !errors.Is(err, errBreakerOpen) {
		t.Fatalf("err = %v, want breaker-open", err)
	}
	if called {
		t.Fatal("open breaker still contacted the backend")
	}
}

func TestProbeCallerCancellationIsNeutral(t *testing.T) {
	e := NewExecutor(Config{})
	// As many abandoned probes as it takes failures to open the breaker.
	for i := 0; i < breakerFailures; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := e.Probe(ctx, "db", func(c context.Context) (float64, error) {
			cancel()
			<-c.Done()
			return 0, c.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	}
	// The breaker stays closed: the caller walked away, the backend did
	// nothing wrong.
	if s := e.breakerState("db"); s != BreakerClosed {
		t.Fatalf("breaker = %v after caller cancellation", s)
	}
}

// randomRDs builds n multi-value RDs from a seeded RNG.
func randomRDs(rng *stats.RNG, n int) []*core.RD {
	rds := make([]*core.RD, n)
	for i := range rds {
		m := 2 + rng.Intn(3)
		vals := make([]float64, m)
		probs := make([]float64, m)
		for j := range vals {
			vals[j] = float64(rng.Intn(80)) + float64(j)*0.01
			probs[j] = rng.Float64() + 0.05
		}
		rds[i] = core.MustRD(vals, probs)
	}
	return rds
}

func TestAProDegradesOnDeadBackend(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewExecutor(Config{Metrics: reg})
	rds := []*core.RD{
		core.MustRD([]float64{10, 90}, []float64{0.5, 0.5}),
		core.MustRD([]float64{20, 80}, []float64{0.5, 0.5}),
		core.MustRD([]float64{30, 70}, []float64{0.5, 0.5}),
	}
	sel := core.NewSelectionFromRDs(rds, core.Absolute, 1)
	dead := 1
	probe := func(ctx context.Context, i int) (float64, error) {
		if i == dead {
			return 0, fmt.Errorf("connection refused")
		}
		// Live probes observe their low value, so the loop keeps probing
		// (and hits the dead backend) before certainty settles.
		return rds[i].Value(0), nil
	}
	res, err := e.APro(context.Background(), sel, func(i int) string { return fmt.Sprintf("db%d", i) },
		probe, &core.Greedy{}, 0.99, -1)
	if err != nil {
		t.Fatalf("degraded selection must not error: %v", err)
	}
	if len(res.Set) != 1 {
		t.Fatalf("no selection returned: %+v", res)
	}
	for _, db := range res.Set {
		if db == dead {
			t.Fatalf("dead backend selected: %+v", res)
		}
	}
	foundExcluded := false
	for _, db := range res.Excluded {
		if db == dead {
			foundExcluded = true
		}
	}
	if !res.Degraded || !foundExcluded {
		t.Fatalf("degradation not reported: %+v", res)
	}
	if got := reg.Counter("mp_selections_degraded_total", nil).Value(); got != 1 {
		t.Errorf("mp_selections_degraded_total = %d, want 1", got)
	}
}

func TestAProCallerCancellation(t *testing.T) {
	e := NewExecutor(Config{})
	rds := randomRDs(stats.NewRNG(77), 4)
	sel := core.NewSelectionFromRDs(rds, core.Absolute, 1)
	ctx, cancel := context.WithCancel(context.Background())
	probe := func(c context.Context, i int) (float64, error) {
		cancel() // the user walks away mid-probe
		<-c.Done()
		return 0, c.Err()
	}
	_, err := e.APro(ctx, sel, func(i int) string { return "db" }, probe, &core.Greedy{}, 0.999, -1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want caller cancellation", err)
	}
}

func TestAProValidatesArguments(t *testing.T) {
	e := NewExecutor(Config{})
	sel := core.NewSelectionFromRDs(randomRDs(stats.NewRNG(1), 3), core.Absolute, 1)
	if _, err := e.APro(context.Background(), sel, func(int) string { return "x" }, nil, &core.Greedy{}, 0.5, -1); err == nil {
		t.Error("nil probe accepted")
	}
	probe := func(ctx context.Context, i int) (float64, error) { return 1, nil }
	if _, err := e.APro(context.Background(), sel, func(int) string { return "x" }, probe, nil, 0.5, -1); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := e.APro(context.Background(), sel, nil, probe, &core.Greedy{}, 0.5, -1); err == nil {
		t.Error("nil name mapping accepted")
	}
	if _, err := e.APro(context.Background(), sel, func(int) string { return "x" }, probe, &core.Greedy{}, 1.5, -1); err == nil {
		t.Error("threshold above 1 accepted")
	}
}

func TestAProMaxProbesBudget(t *testing.T) {
	e := NewExecutor(Config{})
	rds := randomRDs(stats.NewRNG(5), 6)
	sel := core.NewSelectionFromRDs(rds, core.Absolute, 1)
	probes := 0
	var mu sync.Mutex
	probe := func(ctx context.Context, i int) (float64, error) {
		mu.Lock()
		probes++
		mu.Unlock()
		return rds[i].Value(0), nil
	}
	res, err := e.APro(context.Background(), sel, func(i int) string { return fmt.Sprintf("db%d", i) },
		probe, &core.Greedy{}, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes() > 3 {
		t.Fatalf("budget exceeded: %d successful probes", res.Probes())
	}
}

// breakerState reports the current breaker state for a backend
// (BreakerClosed for backends never probed).
func (e *Executor) breakerState(name string) BreakerState {
	e.mu.Lock()
	b := e.backends[name]
	e.mu.Unlock()
	if b == nil {
		return BreakerClosed
	}
	return b.br.State()
}

// inflight returns the number of probes currently in flight.
func (e *Executor) inflight() int64 { return e.pool.Inflight() }
