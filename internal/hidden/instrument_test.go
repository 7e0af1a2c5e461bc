package hidden

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"metaprobe/internal/obs"
)

func TestInstrumentedRecordsSearchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInstrumented(NewStatic("s", Result{MatchCount: 3}), reg)
	for i := 0; i < 5; i++ {
		if _, err := in.Search("q", 0); err != nil {
			t.Fatal(err)
		}
	}
	lbl := obs.Labels{"db": "s"}
	if got := reg.Counter("metaprobe_db_searches_total", lbl).Value(); got != 5 {
		t.Errorf("searches_total = %d, want 5", got)
	}
	if got := reg.Counter("metaprobe_db_search_errors_total", lbl).Value(); got != 0 {
		t.Errorf("search_errors_total = %d, want 0", got)
	}
	if got := reg.Histogram("metaprobe_db_search_latency_seconds", lbl).Count(); got != 5 {
		t.Errorf("latency count = %d, want 5", got)
	}
	if in.Name() != "s" {
		t.Errorf("Name = %q", in.Name())
	}
}

func TestInstrumentedCountsErrors(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInstrumented(NewStaticError("bad", errors.New("boom")), reg)
	if _, err := in.Search("q", 0); err == nil {
		t.Fatal("want error")
	}
	lbl := obs.Labels{"db": "bad"}
	if got := reg.Counter("metaprobe_db_search_errors_total", lbl).Value(); got != 1 {
		t.Errorf("search_errors_total = %d, want 1", got)
	}
	// Errors still count as searches and observe latency.
	if got := reg.Counter("metaprobe_db_searches_total", lbl).Value(); got != 1 {
		t.Errorf("searches_total = %d, want 1", got)
	}
}

func TestInstrumentedFetch(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInstrumented(buildSmallLocal(t), reg)
	if _, err := in.Fetch("d0"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Fetch("missing"); err == nil {
		t.Fatal("missing doc must fail")
	}
	lbl := obs.Labels{"db": "testdb"}
	if got := reg.Counter("metaprobe_db_fetches_total", lbl).Value(); got != 2 {
		t.Errorf("fetches_total = %d, want 2", got)
	}
	if got := reg.Counter("metaprobe_db_fetch_errors_total", lbl).Value(); got != 1 {
		t.Errorf("fetch_errors_total = %d, want 1", got)
	}
	if in.Size() != 4 {
		t.Errorf("Size = %d", in.Size())
	}
	// Fetch through a non-fetcher fails without panicking.
	tab := NewInstrumented(NewTable("t", nil), reg)
	if _, err := tab.Fetch("x"); err == nil {
		t.Error("fetch on non-fetcher must fail")
	}
	if tab.Size() != 0 {
		t.Error("Size on non-sizer should be 0")
	}
}

func TestInstrumentedNilRegistryIsNoop(t *testing.T) {
	in := NewInstrumented(NewStatic("s", Result{MatchCount: 1}), nil)
	res, err := in.Search("q", 0)
	if err != nil || res.MatchCount != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestInstrumentedWiresMiddlewareChain builds the full production
// stack — Instrumented over Retry over RateLimited over Cached — and
// checks the chain-walk wires retry, wait and cache metrics.
func TestInstrumentedWiresMiddlewareChain(t *testing.T) {
	reg := obs.NewRegistry()
	flk := &flaky{name: "db", failUntil: 2} // first search fails once
	cached := NewCached(flk, 8)
	rl := NewRateLimited(cached, 50*time.Millisecond)
	// Fake clock so the test does not sleep.
	now := time.Unix(0, 0)
	rl.now = func() time.Time { return now }
	rl.sleep = func(_ context.Context, d time.Duration) error { now = now.Add(d); return nil }
	rt := NewRetry(rl, 3, 0)
	rt.sleep = func(context.Context, time.Duration) error { return nil }
	in := NewInstrumented(rt, reg)

	if _, err := in.Search("q", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Search("q", 0); err != nil { // cache hit
		t.Fatal(err)
	}

	lbl := obs.Labels{"db": "db"}
	if got := reg.Counter("metaprobe_db_retries_total", lbl).Value(); got != 1 {
		t.Errorf("retries_total = %d, want 1", got)
	}
	// Two searches through the limiter (the retry of the first and the
	// second user call) waited; the very first was immediate.
	if got := reg.Histogram("metaprobe_db_ratelimit_wait_seconds", lbl).Count(); got < 1 {
		t.Errorf("ratelimit wait count = %d, want ≥ 1", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		// The failed first attempt and its retry both missed; the
		// second user call hit.
		`metaprobe_db_cache_hits_total{db="db"} 1`,
		`metaprobe_db_cache_misses_total{db="db"} 2`,
		`metaprobe_db_searches_total{db="db"} 2`,
		`metaprobe_db_search_latency_seconds{db="db",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestInstrumentedKeepsCallerHooks checks that hooks set before
// instrumentation are not overwritten by the chain walk.
func TestInstrumentedKeepsCallerHooks(t *testing.T) {
	called := 0
	rt := NewRetry(&flaky{name: "db", failUntil: 2}, 3, 0)
	rt.sleep = func(context.Context, time.Duration) error { return nil }
	rt.OnRetry = func(error) { called++ }
	reg := obs.NewRegistry()
	in := NewInstrumented(rt, reg)
	if _, err := in.Search("q", 0); err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Errorf("caller's OnRetry called %d times, want 1", called)
	}
	if got := reg.Counter("metaprobe_db_retries_total", obs.Labels{"db": "db"}).Value(); got != 0 {
		t.Errorf("registry retries = %d, want 0 (caller's hook kept)", got)
	}
}
