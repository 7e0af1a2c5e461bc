package probeexec

import (
	"context"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// TestProbeSpanPropagationAcrossPool verifies that the trace context
// survives the pool handoff: the probe function runs on an executor
// goroutine, yet the span it sees via ctx must belong to the caller's
// trace, and the recorded tree must nest probe.attempt under probe
// under the caller's root. Run with -race: many concurrent selections
// share one tracer.
func TestProbeSpanPropagationAcrossPool(t *testing.T) {
	tr := span.NewTracer(0)
	e := NewExecutor(Config{Limits: Limits{Global: 4}})
	const callers = 8
	seen := make([]string, callers) // trace ID observed inside the probe fn
	roots := make([]string, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, root := tr.Start(context.Background(), "selection")
			roots[c] = root.Trace()
			_, err := e.Probe(ctx, "db", func(ctx context.Context) (float64, error) {
				seen[c] = span.FromContext(ctx).Trace()
				return 1, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
			}
			root.End()
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if seen[c] == "" || seen[c] != roots[c] {
			t.Errorf("caller %d: probe fn saw trace %q, want %q", c, seen[c], roots[c])
		}
		spans := tr.TraceSpans(roots[c])
		byName := map[string]*span.Span{}
		for _, s := range spans {
			byName[s.Name] = s
		}
		probe, attempt := byName["probe"], byName["probe.attempt"]
		if probe == nil || attempt == nil {
			t.Fatalf("caller %d: trace holds %d spans, missing probe/probe.attempt", c, len(spans))
		}
		if probe.Attrs["backend"] != "db" {
			t.Errorf("caller %d: probe backend attr = %q", c, probe.Attrs["backend"])
		}
		if attempt.ParentID != probe.SpanID {
			t.Errorf("caller %d: attempt parented to %q, want probe %q", c, attempt.ParentID, probe.SpanID)
		}
	}
}

// TestHedgedDuplicateSpansShareTrace verifies that a hedged probe's
// two attempts record as sibling probe.attempt spans of one trace —
// the loser included, even though it ends after the probe returns —
// and that the probe span and the executor's counters record the hedge
// and its win.
func TestHedgedDuplicateSpansShareTrace(t *testing.T) {
	tr := span.NewTracer(0)
	reg := obs.NewRegistry()
	e := NewExecutor(Config{HedgeAfter: 5 * time.Millisecond, Metrics: reg})
	ctx, root := tr.Start(context.Background(), "selection")
	var mu sync.Mutex
	calls := 0
	v, err := e.Probe(ctx, "slow", func(ctx context.Context) (float64, error) {
		mu.Lock()
		n := calls
		calls++
		mu.Unlock()
		if n == 0 {
			<-ctx.Done() // original hangs until the hedge wins
			return 0, ctx.Err()
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("v=%v err=%v, want hedge's 42", v, err)
	}
	root.End()

	// The losing attempt's span ends on its own goroutine after Probe
	// returns; wait for both attempts to land in the store.
	var attempts []*span.Span
	var probe *span.Span
	deadline := time.Now().Add(2 * time.Second)
	for {
		attempts, probe = attempts[:0], nil
		for _, s := range tr.TraceSpans(root.Trace()) {
			switch s.Name {
			case "probe.attempt":
				attempts = append(attempts, s)
			case "probe":
				probe = s
			}
		}
		if len(attempts) == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(attempts) != 2 {
		t.Fatalf("recorded %d probe.attempt spans, want 2", len(attempts))
	}
	hedged := 0
	for _, a := range attempts {
		if a.Attrs["hedge"] == "true" {
			hedged++
		}
		if a.TraceID != root.Trace() {
			t.Errorf("attempt on trace %q, want %q", a.TraceID, root.Trace())
		}
	}
	if hedged != 1 {
		t.Errorf("hedge-marked attempts = %d, want 1", hedged)
	}
	if probe == nil {
		t.Error("recorded no probe span")
	} else if probe.Attrs["hedge_won"] != "true" {
		t.Errorf("probe span attributes %v, want hedge_won=true", probe.Attrs)
	}
	if got := reg.Counter("mp_probe_hedges_total", nil).Value(); got != 1 {
		t.Errorf("mp_probe_hedges_total = %d, want 1", got)
	}
	if got := reg.Counter("mp_probe_hedge_wins_total", nil).Value(); got != 1 {
		t.Errorf("mp_probe_hedge_wins_total = %d, want 1", got)
	}
}
