// Package ops mounts the operational HTTP tree — metrics, health,
// /debug/* documents and pprof — that the daemon serves next to its own
// routes. It is the one place that knows those paths.
package ops

import (
	"net/http"
	"net/http/pprof"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// Sinks are the observability sinks server.Handler sets. Each one backs
// exactly one route; a nil sink leaves its route unmounted (404).
type Sinks struct {
	Metrics *obs.Registry // /metrics
	Spans   *span.Tracer  // /debug/spans
	// Model returns the /debug/model document (serving model versions).
	Model func() any
	// Ready is the /readyz check; nil means always ready.
	Ready func() error
}

// Mount registers the ops tree on mux: /healthz, /readyz and
// /debug/pprof/* always (stacks are /debug/pprof/goroutine?debug=1,
// unaggregated with debug=2), and one route per non-nil sink.
func Mount(mux *http.ServeMux, s Sinks) {
	mux.Handle("/healthz", obs.HealthzHandler())
	mux.Handle("/readyz", obs.ReadyzCheckHandler(s.Ready))
	if s.Metrics != nil {
		mux.Handle("/metrics", obs.MetricsHandler(s.Metrics))
	}
	if s.Spans != nil {
		mux.Handle("/debug/spans", span.Handler(s.Spans))
	}
	if s.Model != nil {
		mux.Handle("/debug/model", obs.JSONHandler(s.Model))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
