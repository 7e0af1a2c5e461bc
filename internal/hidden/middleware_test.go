package hidden

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRateLimitedSpacesSearches(t *testing.T) {
	inner := NewStatic("s", Result{MatchCount: 1})
	rl := NewRateLimited(inner, 100*time.Millisecond)

	// Fake clock: record requested sleeps instead of sleeping.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	var slept []time.Duration
	rl.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	rl.sleep = func(_ context.Context, d time.Duration) error {
		mu.Lock()
		defer mu.Unlock()
		slept = append(slept, d)
		now = now.Add(d)
		return nil
	}

	for i := 0; i < 3; i++ {
		if _, err := rl.Search("q", 0); err != nil {
			t.Fatal(err)
		}
	}
	// First call immediate; the next two wait 100ms each.
	if len(slept) != 2 {
		t.Fatalf("slept %v, want two delays", slept)
	}
	for _, d := range slept {
		if d != 100*time.Millisecond {
			t.Errorf("delay %v, want 100ms", d)
		}
	}
	if got := len(inner.Queries()); got != 3 {
		t.Errorf("inner saw %d searches", got)
	}
	if rl.Name() != "s" {
		t.Errorf("Name = %q", rl.Name())
	}
}

func TestRateLimitedPassthroughs(t *testing.T) {
	local := buildSmallLocal(t)
	rl := NewRateLimited(local, 0)
	if rl.Size() != 4 {
		t.Errorf("Size = %d", rl.Size())
	}
	if _, err := rl.Fetch("d0"); err != nil {
		t.Errorf("Fetch: %v", err)
	}
	table := NewRateLimited(NewTable("t", nil), 0)
	if _, err := table.Fetch("x"); err == nil {
		t.Error("fetch on non-fetcher must fail")
	}
	if table.Size() != 0 {
		t.Error("Size on non-sizer should be 0")
	}
}

// flaky fails with ErrUnavailable until the n-th call.
type flaky struct {
	name      string
	failUntil int
	calls     int
}

func (f *flaky) Name() string { return f.name }
func (f *flaky) Search(query string, topK int) (Result, error) {
	f.calls++
	if f.calls < f.failUntil {
		return Result{}, fmt.Errorf("%w: transient", ErrUnavailable)
	}
	return Result{MatchCount: 7}, nil
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	f := &flaky{name: "f", failUntil: 3}
	r := NewRetry(f, 4, time.Millisecond)
	var slept []time.Duration
	r.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }
	// Pin jitter to the ceiling so the doubling schedule is observable.
	r.jitter = func(d time.Duration) time.Duration { return d }

	res, err := r.Search("q", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 7 {
		t.Errorf("result = %+v", res)
	}
	if f.calls != 3 {
		t.Errorf("calls = %d, want 3", f.calls)
	}
	// Exponential backoff: 1ms then 2ms.
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff = %v", slept)
	}
}

func TestRetryBackoffIsCappedAndJittered(t *testing.T) {
	f := &flaky{name: "f", failUntil: 100}
	r := NewRetry(f, 6, 10*time.Second)
	r.MaxBackoff = 15 * time.Second
	var ceilings []time.Duration
	// Record the pre-jitter ceilings the schedule produces.
	r.jitter = func(d time.Duration) time.Duration { ceilings = append(ceilings, d); return d / 2 }
	var slept []time.Duration
	r.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }

	if _, err := r.Search("q", 0); err == nil {
		t.Fatal("want failure after exhausting retries")
	}
	// 10s, then capped at 15s forever — never 20s, 40s, ...
	want := []time.Duration{10 * time.Second, 15 * time.Second, 15 * time.Second, 15 * time.Second, 15 * time.Second}
	if len(ceilings) != len(want) {
		t.Fatalf("ceilings = %v", ceilings)
	}
	for i, c := range ceilings {
		if c != want[i] {
			t.Errorf("ceiling %d = %v, want %v", i, c, want[i])
		}
	}
	// The slept durations are what jitter returned, not the ceilings.
	for i, d := range slept {
		if d != ceilings[i]/2 {
			t.Errorf("slept %v, want jittered %v", d, ceilings[i]/2)
		}
	}
}

func TestRetryDefaultJitterStaysWithinCeiling(t *testing.T) {
	f := &flaky{name: "f", failUntil: 100}
	r := NewRetry(f, 5, 8*time.Millisecond)
	var slept []time.Duration
	r.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }
	if _, err := r.Search("q", 0); err == nil {
		t.Fatal("want failure")
	}
	ceil := 8 * time.Millisecond
	for _, d := range slept {
		if d < 0 || d > ceil {
			t.Errorf("jittered delay %v outside [0, %v]", d, ceil)
		}
		if ceil < defaultMaxBackoff {
			ceil *= 2
		}
	}
}

func TestRetryGivesUpAndWrapsError(t *testing.T) {
	f := &flaky{name: "f", failUntil: 100}
	r := NewRetry(f, 3, 0)
	r.sleep = func(context.Context, time.Duration) error { return nil }
	_, err := r.Search("q", 0)
	if err == nil {
		t.Fatal("want failure after exhausting retries")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("error should keep ErrUnavailable: %v", err)
	}
	if f.calls != 3 {
		t.Errorf("calls = %d, want 3", f.calls)
	}
}

func TestRetryDoesNotRetryPermanentErrors(t *testing.T) {
	bad := NewStaticError("bad", errors.New("malformed answer page"))
	r := NewRetry(bad, 5, 0)
	r.sleep = func(context.Context, time.Duration) error {
		t.Fatal("must not back off on permanent errors")
		return nil
	}
	if _, err := r.Search("q", 0); err == nil {
		t.Fatal("want error")
	}
	if got := len(bad.Queries()); got != 1 {
		t.Errorf("permanent error retried %d times", got)
	}
}

func TestRetryFetch(t *testing.T) {
	local := buildSmallLocal(t)
	r := NewRetry(local, 2, 0)
	r.sleep = func(context.Context, time.Duration) error { return nil }
	if _, err := r.Fetch("d0"); err != nil {
		t.Errorf("Fetch: %v", err)
	}
	if _, err := r.Fetch("missing"); err == nil {
		t.Error("missing doc must fail")
	}
	if r.Size() != 4 {
		t.Errorf("Size = %d", r.Size())
	}
	table := NewRetry(NewTable("t", nil), 2, 0)
	if _, err := table.Fetch("x"); err == nil {
		t.Error("fetch on non-fetcher must fail")
	}
	// attempts < 1 clamps to 1.
	one := NewRetry(&flaky{name: "f", failUntil: 2}, 0, 0)
	one.sleep = func(context.Context, time.Duration) error { return nil }
	if _, err := one.Search("q", 0); err == nil {
		t.Error("single attempt against first-call failure must fail")
	}
}

func TestLatencyInjectsDelay(t *testing.T) {
	inner := NewStatic("s", Result{MatchCount: 2})
	l := NewLatency(inner, 42*time.Millisecond)
	var got time.Duration
	l.sleep = func(_ context.Context, d time.Duration) error { got = d; return nil }
	res, err := l.Search("q", 0)
	if err != nil || res.MatchCount != 2 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if got != 42*time.Millisecond {
		t.Errorf("delay = %v", got)
	}
	if l.Name() != "s" || l.Size() != 0 {
		t.Error("passthroughs wrong")
	}
}

// TestMiddlewareComposition stacks all wrappers and verifies the whole
// chain still behaves like a Database with probe accounting.
func TestMiddlewareComposition(t *testing.T) {
	local := buildSmallLocal(t)
	counting := NewCounting(local)
	rl := NewRateLimited(counting, 0)
	r := NewRetry(rl, 2, 0)
	r.sleep = func(context.Context, time.Duration) error { return nil }
	lat := NewLatency(r, 0)
	lat.sleep = func(context.Context, time.Duration) error { return nil }

	res, err := lat.Search("breast cancer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("MatchCount = %d", res.MatchCount)
	}
	if counting.Searches() != 1 {
		t.Errorf("counted %d searches", counting.Searches())
	}
}
