package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
)

// SelectRequest is the /v1/select request body (or, for GET, its
// query parameters: tenant, q, k, metric, t, maxProbes). Zero fields
// take the defaults — the default tenant, k 3, absolute, threshold 0.9;
// MaxProbes 0 means unbounded (the paper's default), a negative value
// is passed through unchanged.
type SelectRequest struct {
	Tenant    string  `json:"tenant,omitempty"`
	Query     string  `json:"query"`
	K         int     `json:"k,omitempty"`
	Metric    string  `json:"metric,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	MaxProbes int     `json:"maxProbes,omitempty"`
}

// SelectResponse is the /v1/select answer. Tier reports the service
// level the answer was actually computed at — "full" (adaptive
// probing), "rd_only" (model-based selection, no probes) or
// "rhat_only" (summary-estimate ranking) — so a degraded answer is
// labeled, never silently substituted.
type SelectResponse struct {
	Tenant string `json:"tenant"`
	Tier   string `json:"tier"`
	// ShedReason is set when Tier is below full: "overload" (global
	// inflight pressure) or "tenant_rate" (this tenant exhausted its
	// full-service budget).
	ShedReason string `json:"shedReason,omitempty"`
	// Coalesced reports that this request rode an identical in-flight
	// selection instead of running its own; Fanout is how many requests
	// the shared run served in total (1 = no sharing).
	Coalesced bool  `json:"coalesced"`
	Fanout    int64 `json:"fanout,omitempty"`
	// Databases is the selected set (testbed order); Certainty its
	// expected correctness (0 on the rhat_only tier, which makes no
	// probabilistic claim); Reached whether the requested threshold was
	// met.
	Databases []string `json:"databases"`
	Certainty float64  `json:"certainty"`
	Probes    int      `json:"probes"`
	Reached   bool     `json:"reached"`
	// Degraded/ExcludedDBs surface backend failures inside a full-tier
	// selection (see metaprobe.SelectionResult).
	Degraded    bool     `json:"degraded,omitempty"`
	ExcludedDBs []string `json:"excludedDBs,omitempty"`
	// ID and TraceID correlate with logs and /debug/spans?trace=<id>,
	// whose root "selection" span carries ID as its "id" attribute.
	// For a coalesced request they identify the shared run, which is
	// the one that did the work.
	ID        string  `json:"id,omitempty"`
	TraceID   string  `json:"traceId,omitempty"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// isClientError reports whether err is the caller's fault (400/404)
// rather than the server's.
func isClientError(err error) bool {
	var ute *unknownTenantError
	if errors.As(err, &ute) {
		return true
	}
	var bre *badRequestError
	return errors.As(err, &bre)
}

// badRequestError marks malformed requests for 400 mapping.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// Handler returns the daemon's full HTTP surface: its own routes
//
//	POST/GET /v1/select   — tiered, coalesced selection
//	GET /v1/tenants       — registered tenants
//	GET /debug/server     — admission/coalescer counters
//
// plus the shared ops tree (ops.Mount): /healthz, /readyz
// (drain-aware), /debug/model (per-tenant model versions + skew)
// and /debug/pprof/* always, /metrics and
// /debug/spans when Config.Metrics and Config.Spans are set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/select", s.selectHandler())
	mux.Handle("/v1/tenants", obs.JSONHandler(func() any { return s.tenantNames() }))
	mux.Handle("/debug/server", obs.JSONHandler(func() any { return s.debugState() }))
	ops.Mount(mux, ops.Sinks{
		Metrics: s.cfg.Metrics,
		Spans:   s.cfg.Spans,
		Model:   func() any { return s.modelsInfo() },
		Ready:   s.ready,
	})
	return mux
}

// debugState is the /debug/server document.
func (s *Server) debugState() any {
	st := s.Stats()
	return map[string]any{
		"uptimeSeconds": s.uptime().Seconds(),
		"tenants":       st.tenants,
		"inflight":      st.Inflight,
		"peakInflight":  st.PeakInflight,
		"softInflight":  s.cfg.SoftInflight,
		"hardInflight":  s.cfg.HardInflight,
		"tenantRate":    s.cfg.TenantRate,
		"tenantBurst":   s.cfg.TenantBurst,
		"draining":      s.draining(),
	}
}

// selectHandler serves /v1/select. POST carries a SelectRequest JSON
// body; GET maps query parameters (tenant, q, k, metric, t,
// maxProbes) for curl-friendly exploration.
func (s *Server) selectHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeSelectRequest(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := s.Do(r.Context(), req)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		obs.WriteJSON(w, resp)
	})
}

// statusFor maps a Do error to an HTTP status.
func statusFor(err error) int {
	var ute *unknownTenantError
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.As(err, &ute):
		return http.StatusNotFound
	case isClientError(err):
		return http.StatusBadRequest
	}
	// Client disconnects surface as context errors; 499-style nuance
	// is not worth a non-standard code here.
	return http.StatusInternalServerError
}

// decodeSelectRequest parses either transport form.
func decodeSelectRequest(r *http.Request) (SelectRequest, error) {
	var req SelectRequest
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, &badRequestError{fmt.Sprintf("bad request body: %v", err)}
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Tenant = q.Get("tenant")
		req.Query = q.Get("q")
		if req.Query == "" {
			req.Query = q.Get("query")
		}
		req.Metric = q.Get("metric")
		if v := q.Get("k"); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil {
				return req, &badRequestError{fmt.Sprintf("bad k %q", v)}
			}
			req.K = k
		}
		if v := q.Get("t"); v != "" {
			t, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, &badRequestError{fmt.Sprintf("bad threshold %q", v)}
			}
			req.Threshold = t
		}
		if v := q.Get("maxProbes"); v != "" {
			mp, err := strconv.Atoi(v)
			if err != nil {
				return req, &badRequestError{fmt.Sprintf("bad maxProbes %q", v)}
			}
			req.MaxProbes = mp
		}
	default:
		return req, &badRequestError{"use GET or POST"}
	}
	if req.Query == "" {
		return req, &badRequestError{"missing query (POST body \"query\" or GET ?q=)"}
	}
	return req, nil
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
