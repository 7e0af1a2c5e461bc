package probeexec

import (
	"context"
	"sync"
	"testing"

	"metaprobe/internal/obs/span"
)

// TestProbeSpanPropagationAcrossPool verifies that the trace context
// survives the pool: the span the probe function sees via ctx must be
// the probe's own, in the caller's trace, and the recorded tree must
// hold exactly one probe span under the caller's root — no span per
// attempt — carrying what the backend noted on it (an HTTP client's
// http_response events). Run with -race: many concurrent selections
// share one tracer and queue for a pool smaller than their number.
func TestProbeSpanPropagationAcrossPool(t *testing.T) {
	tr := span.NewTracer(0)
	e := newExecutor(Config{}, 4)
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
				sp := span.FromContext(ctx)
				seen[c] = sp.Trace()
				sp.AddEvent("http_response", "status", "200", "bytes", "512")
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
		var root, probe *span.Span
		for _, s := range spans {
			switch s.Name {
			case "selection":
				root = s
			case "probe":
				probe = s
			}
		}
		if len(spans) != 2 || root == nil || probe == nil {
			t.Fatalf("caller %d: trace holds %d spans, want the selection and one probe", c, len(spans))
		}
		if probe.ParentID != root.SpanID {
			t.Errorf("caller %d: probe parented to %q, want the selection %q", c, probe.ParentID, root.SpanID)
		}
		if probe.Attrs["backend"] != "db" {
			t.Errorf("caller %d: probe backend attr = %q", c, probe.Attrs["backend"])
		}
		if len(probe.Events) != 1 || probe.Events[0].Name != "http_response" {
			t.Errorf("caller %d: probe span events %+v, want the backend's http_response", c, probe.Events)
		}
	}
}
