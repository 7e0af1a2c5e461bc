// Package ops mounts the operational HTTP tree — metrics, health,
// /debug/* documents and pprof — that the daemon serves next to its own
// routes. It is the one place that knows those paths.
package ops

import (
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"

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

// Mount registers the ops tree on mux: /healthz, /readyz,
// /debug/goroutines and /debug/pprof/* always, and one route per
// non-nil sink.
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
	mux.Handle("/debug/goroutines", goroutineDumpHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// goroutineDumpHandler serves a plain-text dump of all goroutine
// stacks — mount it at /debug/goroutines. ?full=1 switches from the
// aggregated view (identical stacks collapsed with counts) to the
// unaggregated per-goroutine view with full frames, which is what you
// want when hunting a leak's spawn site.
func goroutineDumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		p := rpprof.Lookup("goroutine")
		if p == nil {
			http.Error(w, "goroutine profile unavailable", http.StatusInternalServerError)
			return
		}
		debug := 1
		if req.URL.Query().Get("full") == "1" {
			debug = 2
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.WriteTo(w, debug)
	})
}
