package span

import (
	"net/http"
	"strconv"

	"metaprobe/internal/obs"
)

// Handler serves the span store — mount it at /debug/spans.
//
//	GET /debug/spans            → recent trace summaries, newest first
//	GET /debug/spans?n=20       → at most 20 summaries
//	GET /debug/spans?trace=<id> → the span tree of one trace
//	GET /debug/spans?trace=<id>&format=otlp → the same trace as OTLP JSON
//
// An unknown (or already evicted) trace ID answers 404.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if id := q.Get("trace"); id != "" {
			if q.Get("format") == "otlp" {
				if len(t.TraceSpans(id)) == 0 {
					http.Error(w, "unknown trace", http.StatusNotFound)
					return
				}
				obs.WriteJSON(w, t.OTLP(id, "metaprobe"))
				return
			}
			tree := t.Tree(id)
			if tree == nil {
				http.Error(w, "unknown trace", http.StatusNotFound)
				return
			}
			obs.WriteJSON(w, map[string]any{"traceId": id, "spans": tree})
			return
		}
		n := 50
		if s := q.Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		obs.WriteJSON(w, map[string]any{
			"recorded": t.Recorded(),
			"dropped":  t.Dropped(),
			"traces":   t.Traces(n),
		})
	})
}
