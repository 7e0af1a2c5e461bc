package obs

import (
	"encoding/json"
	"net/http"
)

// MetricsHandler serves the registry in Prometheus text exposition
// format — mount it at /metrics.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are gone; nothing useful left to do but note it.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WriteJSON writes v as indented JSON: the one encoder behind every
// /debug/* document.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// JSONHandler serves snapshot() through WriteJSON on every request.
// snapshot runs per request, so the served view is always current.
func JSONHandler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		WriteJSON(w, snapshot())
	})
}

// HealthzHandler reports process liveness: it always answers 200 "ok".
// Mount it at /healthz for load-balancer liveness checks.
func HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
}

// ReadyzCheckHandler reports readiness with a reason: 200 "ready" when
// check() returns nil, 503 with the error text otherwise, so operators
// see which of several causes (not yet trained, refresher wedged,
// draining) applies. A nil check means always ready.
func ReadyzCheckHandler(check func() error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Write([]byte("ready\n"))
	})
}
