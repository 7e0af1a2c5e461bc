package hidden

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/obs"
)

// These tests hammer every middleware wrapper with concurrent Search
// calls; they exist to be run under `go test -race` (CI does) and to
// pin down the concurrency contracts: wrappers must be safe for
// concurrent use once constructed and wired.

// atomicFlaky fails with ErrUnavailable on a fixed fraction of calls,
// safely from many goroutines.
type atomicFlaky struct {
	name  string
	every int64
	calls atomic.Int64
}

func (f *atomicFlaky) Name() string { return f.name }

func (f *atomicFlaky) Search(query string, topK int) (Result, error) {
	c := f.calls.Add(1)
	if f.every > 0 && c%f.every == 0 {
		return Result{}, fmt.Errorf("%w: transient", ErrUnavailable)
	}
	return Result{MatchCount: int(len(query))}, nil
}

// hammer runs fn from workers goroutines, iters times each, failing
// the test on any error.
func hammer(t *testing.T, workers, iters int, fn func(worker, i int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(w, i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRateLimitedConcurrentSearches(t *testing.T) {
	inner := NewStatic("s", Result{MatchCount: 1})
	rl := NewRateLimited(inner, time.Nanosecond)
	var waits atomic.Int64
	rl.OnWait = func(time.Duration) { waits.Add(1) }
	hammer(t, 8, 200, func(w, i int) error {
		_, err := rl.Search("q", 0)
		return err
	})
	if got := len(inner.Queries()); got != 8*200 {
		t.Errorf("inner saw %d searches, want %d", got, 8*200)
	}
}

func TestRetryConcurrentSearches(t *testing.T) {
	flk := &atomicFlaky{name: "f", every: 5}
	r := NewRetry(flk, 4, 0)
	r.sleep = func(context.Context, time.Duration) error { return nil }
	var retries, exhausted atomic.Int64
	r.OnRetry = func(error) { retries.Add(1) }
	hammer(t, 8, 200, func(w, i int) error {
		// A search can (rarely) exhaust all 4 attempts when the global
		// failure counter aligns; that is correct behaviour, not a test
		// failure.
		if _, err := r.Search("query", 0); err != nil {
			exhausted.Add(1)
		}
		return nil
	})
	if retries.Load() == 0 {
		t.Error("expected some retries under injected failures")
	}
	if n := exhausted.Load(); n > 50 {
		t.Errorf("%d searches exhausted retries; the retry loop is not retrying", n)
	}
}

func TestCachedConcurrentSearches(t *testing.T) {
	counting := NewCounting(buildSmallLocal(t))
	c := NewCached(counting, 16)
	queries := []string{"breast cancer", "lung cancer", "nutrition", "diet"}
	hammer(t, 8, 250, func(w, i int) error {
		res, err := c.Search(queries[(w+i)%len(queries)], 2)
		if err != nil {
			return err
		}
		if res.MatchCount < 0 {
			return fmt.Errorf("bad result %+v", res)
		}
		return nil
	})
	hits, misses := c.Stats()
	if hits+misses != 8*250 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 8*250)
	}
	// Every distinct (query, topK) needs at least one backend call, and
	// concurrent first-misses may add a few more — but far fewer than
	// the total number of searches.
	if n := counting.Searches(); n < int64(len(queries)) || n > 200 {
		t.Errorf("backend searches = %d, want small (cache must absorb load)", n)
	}
}

func TestInstrumentedConcurrentSearches(t *testing.T) {
	reg := obs.NewRegistry()
	flk := &atomicFlaky{name: "db", every: 7}
	in := NewInstrumented(flk, reg)
	hammer(t, 8, 250, func(w, i int) error {
		in.Search("q", 0) // errors are part of the workload here
		return nil
	})
	lbl := obs.Labels{"db": "db"}
	total := reg.Counter("metaprobe_db_searches_total", lbl).Value()
	errs := reg.Counter("metaprobe_db_search_errors_total", lbl).Value()
	if total != 8*250 {
		t.Errorf("searches_total = %d, want %d", total, 8*250)
	}
	if want := total / 7; errs != want {
		t.Errorf("search_errors_total = %d, want %d", errs, want)
	}
	if got := reg.Histogram("metaprobe_db_search_latency_seconds", lbl).Count(); got != total {
		t.Errorf("latency observations = %d, want %d", got, total)
	}
}

// TestFullChainConcurrent stacks Instrumented → Retry → RateLimited →
// Cached → flaky backend and hammers it, exercising every hook under
// the race detector at once.
func TestFullChainConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	flk := &atomicFlaky{name: "db", every: 9}
	chain := NewInstrumented(
		NewRetry(NewRateLimited(NewCached(flk, 32), 0), 4, 0),
		reg)
	queries := []string{"a", "b", "c", "d", "e", "f"}
	hammer(t, 8, 150, func(w, i int) error {
		// Retry exhaustion is possible when failures align; the chain
		// handling it without corruption is exactly what's under test.
		chain.Search(queries[(w*3+i)%len(queries)], 0)
		return nil
	})
	if got := reg.Counter("metaprobe_db_searches_total", obs.Labels{"db": "db"}).Value(); got != 8*150 {
		t.Errorf("searches_total = %d, want %d", got, 8*150)
	}
}
