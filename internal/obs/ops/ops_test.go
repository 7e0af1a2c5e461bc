package ops_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/ops/opstest"
	"metaprobe/internal/obs/span"
)

// TestMountOneRoutePerSink mounts the tree with every sink, with none,
// and with each sink alone: a route exists iff its sink does.
func TestMountOneRoutePerSink(t *testing.T) {
	all := ops.Sinks{
		Metrics: obs.NewRegistry(),
		Spans:   span.NewTracer(0),
		Model:   func() any { return map[string]int{"version": 1} },
	}
	cases := map[string]ops.Sinks{
		"all":     all,
		"none":    {},
		"metrics": {Metrics: all.Metrics},
		"spans":   {Spans: all.Spans},
		"model":   {Model: all.Model},
	}
	for name, sinks := range cases {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			ops.Mount(mux, sinks)
			opstest.CheckRoutes(t, mux, sinks)
		})
	}
}

func TestGoroutineDumpHandler(t *testing.T) {
	mux := http.NewServeMux()
	ops.Mount(mux, ops.Sinks{})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/goroutines", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("dump does not look like a goroutine profile: %q", rec.Body.String()[:80])
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/goroutines?full=1", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine ") {
		t.Fatalf("full dump: %d", rec.Code)
	}
}
