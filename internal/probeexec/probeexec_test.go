package probeexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/leakcheck"
	"metaprobe/internal/obs"
	"metaprobe/internal/stats"
)

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second}, func() time.Time { return now })

	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}
	// Failures below the threshold keep it closed; a success resets.
	b.Record(probeFailure)
	b.Record(probeFailure)
	b.Record(probeSuccess)
	b.Record(probeFailure)
	b.Record(probeFailure)
	if b.State() != BreakerClosed {
		t.Fatalf("state after interleaved failures = %v, want closed", b.State())
	}
	// Third consecutive failure opens it.
	b.Record(probeFailure)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a probe before cooldown")
	}
	// After the cooldown, exactly one half-open trial is admitted.
	now = now.Add(11 * time.Second)
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
	// Next trial succeeds and closes the breaker.
	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("no trial after second cooldown")
	}
	b.Record(probeSuccess)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after trial success", b.State())
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerConfig{Disabled: true, FailureThreshold: 1}, nil)
	for i := 0; i < 10; i++ {
		b.Record(probeFailure)
	}
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("disabled breaker must always admit")
	}
}

func TestPoolSaturation(t *testing.T) {
	leakcheck.Check(t)
	e := NewExecutor(Config{Limits: Limits{Global: 2}})
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
		t.Fatal("third probe ran with Global=2")
	case <-deadline:
	}
	if got := e.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	close(gate)
	<-started
	wg.Wait()
	if got := e.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d", got)
	}
}

func TestPoolAcquireHonorsContext(t *testing.T) {
	leakcheck.Check(t)
	e := NewExecutor(Config{Limits: Limits{Global: 1}})
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

func TestHedgeWinsAndCancelsOriginal(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewExecutor(Config{HedgeAfter: 10 * time.Millisecond, Metrics: reg})
	var mu sync.Mutex
	calls := 0
	originalCancelled := make(chan struct{})
	v, err := e.Probe(context.Background(), "slow", func(ctx context.Context) (float64, error) {
		mu.Lock()
		n := calls
		calls++
		mu.Unlock()
		if n == 0 {
			// Original attempt: hang until the executor cancels it.
			<-ctx.Done()
			close(originalCancelled)
			return 0, ctx.Err()
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("v=%v err=%v, want hedge's 42", v, err)
	}
	select {
	case <-originalCancelled:
	case <-time.After(time.Second):
		t.Fatal("losing attempt was not cancelled")
	}
	if got := reg.Counter("mp_probe_hedges_total", nil).Value(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := reg.Counter("mp_probe_hedge_wins_total", nil).Value(); got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
	// The winner's success must leave the backend healthy.
	if s := e.BreakerState("slow"); s != BreakerClosed {
		t.Errorf("breaker = %v after hedge win", s)
	}
}

func TestProbeBreakerOpensAndRejects(t *testing.T) {
	e := NewExecutor(Config{Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}})
	fail := func(ctx context.Context) (float64, error) { return 0, fmt.Errorf("backend down") }
	for i := 0; i < 2; i++ {
		if _, err := e.Probe(context.Background(), "down", fail); err == nil {
			t.Fatal("want failure")
		}
	}
	if s := e.BreakerState("down"); s != BreakerOpen {
		t.Fatalf("breaker = %v, want open", s)
	}
	called := false
	_, err := e.Probe(context.Background(), "down", func(ctx context.Context) (float64, error) {
		called = true
		return 1, nil
	})
	if !IsBreakerOpen(err) {
		t.Fatalf("err = %v, want breaker-open", err)
	}
	if called {
		t.Fatal("open breaker still contacted the backend")
	}
}

func TestProbeCallerCancellationIsNeutral(t *testing.T) {
	e := NewExecutor(Config{Breaker: BreakerConfig{FailureThreshold: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := e.Probe(ctx, "db", func(c context.Context) (float64, error) {
			<-c.Done()
			return 0, c.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	<-done
	// Even with FailureThreshold=1 the breaker stays closed: the caller
	// walked away, the backend did nothing wrong.
	if s := e.BreakerState("db"); s != BreakerClosed {
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
