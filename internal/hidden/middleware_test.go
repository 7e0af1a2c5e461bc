package hidden

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestLatencyPassthroughs checks that Latency forwards Fetcher and
// Sizer like every other wrapper, and that only searches are delayed.
func TestLatencyPassthroughs(t *testing.T) {
	lat := NewLatency(buildSmallLocal(t), time.Hour)
	lat.sleep = func(context.Context, time.Duration) error {
		t.Error("a fetch must not be delayed")
		return nil
	}
	if text, err := lat.Fetch("d0"); err != nil || text == "" {
		t.Errorf("Fetch = %q, %v", text, err)
	}
	if lat.Size() != 4 {
		t.Errorf("Size = %d", lat.Size())
	}
	table := NewLatency(NewTable("t", nil), 0)
	if _, err := table.Fetch("x"); err == nil {
		t.Error("fetch on non-fetcher must fail")
	}
	if table.Size() != 0 {
		t.Error("Size on non-sizer should be 0")
	}
}

// TestMiddlewareComposition stacks all wrappers and verifies the whole
// chain still behaves like a Database with probe accounting.
func TestMiddlewareComposition(t *testing.T) {
	local := buildSmallLocal(t)
	counting := NewCounting(local)
	lat := NewLatency(NewFailEvery(counting, 2), 0)
	lat.sleep = func(context.Context, time.Duration) error { return nil }

	res, err := lat.Search("breast cancer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("MatchCount = %d", res.MatchCount)
	}
	if _, err := lat.Search("breast cancer", 0); !errors.Is(err, ErrUnavailable) {
		t.Errorf("second search through FailEvery(2): %v, want ErrUnavailable", err)
	}
	if counting.Searches() != 1 {
		t.Errorf("counted %d searches, want 1 (the failed one never reached the backend)", counting.Searches())
	}
	if _, err := lat.Fetch("d1"); err != nil {
		t.Errorf("Fetch through the chain: %v", err)
	}
}

// TestFullChainConcurrent hammers Latency → FailEvery → Counting → Local
// from many goroutines; run under -race it pins down that the wrappers
// are safe for concurrent use once constructed.
func TestFullChainConcurrent(t *testing.T) {
	counting := NewCounting(buildSmallLocal(t))
	chain := NewLatency(NewFailEvery(counting, 9), 0)
	const workers, iters = 8, 150
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := chain.Search("cancer", 0); err != nil {
					if !errors.Is(err, ErrUnavailable) {
						t.Errorf("unexpected error: %v", err)
					}
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	const total = workers * iters
	if got := failures.Load(); got != total/9 {
		t.Errorf("failures = %d, want %d", got, total/9)
	}
	if got := counting.Searches(); got != total-failures.Load() {
		t.Errorf("backend searches = %d, want %d", got, total-failures.Load())
	}
}
