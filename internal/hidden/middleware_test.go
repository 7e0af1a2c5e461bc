package hidden

import (
	"context"
	"testing"
	"time"
)

func TestLatencyInjectsDelay(t *testing.T) {
	inner := fixed{name: "s", res: Result{MatchCount: 2}}
	l := NewLatency(inner, 42*time.Millisecond)
	var got time.Duration
	l.sleep = func(_ context.Context, d time.Duration) error { got = d; return nil }
	res, err := l.SearchContext(context.Background(), "q", 0)
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
	if text, err := lat.Fetch(context.Background(), "d0"); err != nil || text == "" {
		t.Errorf("Fetch = %q, %v", text, err)
	}
	if lat.Size() != 4 {
		t.Errorf("Size = %d", lat.Size())
	}
	table := NewLatency(table{}, 0)
	if _, err := table.Fetch(context.Background(), "x"); err == nil {
		t.Error("fetch on non-fetcher must fail")
	}
	if table.Size() != 0 {
		t.Error("Size on non-sizer should be 0")
	}
}
