package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"metaprobe"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/ops/opstest"
	"metaprobe/internal/obs/prof"
	"metaprobe/internal/obs/span"
)

func TestWebUIEndToEnd(t *testing.T) {
	ms, env, err := buildDemoMetasearcher(0.005, 7, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	// Attach the profiling subsystem the way web() does, without the
	// background loops: one manual heap capture and one runtime sample
	// give the endpoints and the telemetry panel data to serve.
	env.captor, err = prof.New(prof.Config{Metrics: env.reg})
	if err != nil {
		t.Fatal(err)
	}
	if c := env.captor.CaptureHeap(); c == nil {
		t.Fatal("heap capture failed")
	}
	env.sampler = prof.NewSampler(prof.SamplerConfig{Metrics: env.reg})
	env.sampler.Sample()
	srv := httptest.NewServer(newWebMux(ms, env))
	defer srv.Close()

	get := func(url string) string {
		t.Helper()
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// The landing page shows the form, no results.
	home := get(srv.URL + "/")
	if !strings.Contains(home, "metaprobe") || !strings.Contains(home, "<form") {
		t.Error("landing page missing form")
	}
	if strings.Contains(home, "selected <b>") {
		t.Error("landing page should not show a selection")
	}

	// Before any query the metrics endpoint already exposes the
	// selection and per-database series, at zero.
	pre := get(srv.URL + "/metrics")
	for _, want := range []string{
		"# TYPE metaprobe_select_latency_seconds summary",
		"# TYPE metaprobe_probes_total counter",
		"# TYPE metaprobe_db_search_latency_seconds summary",
		"# TYPE metaprobe_db_cache_hits_total counter",
	} {
		if !strings.Contains(pre, want) {
			t.Errorf("/metrics missing %q before first query", want)
		}
	}

	// Liveness and readiness probes answer immediately; the searcher is
	// trained, so /readyz reports ready.
	if body := get(srv.URL + "/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q, want ok", body)
	}
	if body := get(srv.URL + "/readyz"); !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %q, want ready", body)
	}

	// A query renders results, selection metadata and diagnostics —
	// including the audited correctness and the calibration panel fed
	// by the post-selection audit.
	page := get(srv.URL + "/?q=breast+cancer&k=2&t=0.8")
	for _, want := range []string{"selected <b>", "certainty", "probes", "Why these databases?",
		"Result caches", "hit rate", "audited correctness", "Certainty calibration", "Brier"} {
		if !strings.Contains(page, want) {
			t.Errorf("result page missing %q", want)
		}
	}

	// Out-of-range parameters fall back to defaults instead of failing.
	page = get(srv.URL + "/?q=cancer&k=999&t=7")
	if !strings.Contains(page, "selected <b>") {
		t.Error("fallback parameters did not produce a result page")
	}

	// Script injection in the query must be escaped by the template.
	page = get(srv.URL + "/?q=" + strings.ReplaceAll("<script>alert(1)</script>", " ", "+"))
	if strings.Contains(page, "<script>alert(1)</script>") {
		t.Error("query text not HTML-escaped")
	}

	// After the queries above, /metrics carries live values: selection
	// latency quantiles, per-database search latency, cache traffic.
	metrics := get(srv.URL + "/metrics")
	for _, want := range []string{
		`metaprobe_select_latency_seconds{quantile="0.5"}`,
		`metaprobe_select_latency_seconds{quantile="0.99"}`,
		`metaprobe_db_search_latency_seconds{db="`,
		"metaprobe_db_cache_misses_total{db=",
		"metaprobe_selections_total{reached=",
		"mp_spans_recorded_total",
		"mp_calibration_samples_total",
		"mp_calibration_brier_score",
		"mp_ed_drift_tests_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q after queries", want)
		}
	}
	if !strings.Contains(metrics, "metaprobe_select_latency_seconds_count") {
		t.Error("/metrics missing selection latency count")
	}

	// /debug/spans lists the recent traces, newest first; the oldest
	// of the three is the first real query, one "metasearch" trace.
	var list struct {
		Traces []span.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal([]byte(get(srv.URL+"/debug/spans?n=3")), &list); err != nil {
		t.Fatalf("/debug/spans is not JSON: %v", err)
	}
	if len(list.Traces) != 3 || list.Traces[2].Root != "metasearch" {
		t.Fatalf("/debug/spans?n=3 = %+v, want 3 metasearch traces", list.Traces)
	}
	// Its selection span is the request's whole record: the call's
	// arguments, r̂ per database, the answer and the probe trajectory.
	sel, roots := opstest.ReadSelection(t, srv.Config.Handler, list.Traces[2].TraceID)
	if len(roots) != 1 || roots[0].Name != "metasearch" || sel.ParentID != roots[0].SpanID {
		t.Errorf("selection span is not a child of the one metasearch root")
	}
	a := sel.Attrs
	if a["query"] != "breast cancer" || a["k"] != "2" || a["metric"] != "partial" || a["threshold"] != "0.8" || !strings.HasPrefix(a["id"], "sel-") {
		t.Errorf("selection header attributes = %v", a)
	}
	if sel.StartTime.IsZero() || sel.DurationMs <= 0 {
		t.Errorf("selection window start=%v duration=%vms", sel.StartTime, sel.DurationMs)
	}
	if !reflect.DeepEqual(sel.Databases, ms.Databases()) {
		t.Errorf("estimates keyed by %v, want testbed order %v", sel.Databases, ms.Databases())
	}
	if len(sel.Selected) != 2 || a["reached"] == "" {
		t.Errorf("selected %v reached %q", sel.Selected, a["reached"])
	}
	certainty, initial := opstest.Float(t, a, "certainty"), opstest.Float(t, a, "initial_certainty")
	if probes, _ := strconv.Atoi(a["probes"]); len(sel.Steps) < probes {
		t.Errorf("%d step events for %d probes", len(sel.Steps), probes)
	}
	for i, st := range sel.Steps {
		if !slices.Contains(sel.Databases, st.DB) || st.Err != "" {
			t.Errorf("step %d = %+v, want a healthy probe of a mediated database", i, st)
		}
	}
	if n := len(sel.Steps); n > 0 && sel.Steps[n-1].CertaintyAfter != certainty {
		t.Errorf("trajectory ends at %v, certainty attribute %v", sel.Steps[n-1].CertaintyAfter, certainty)
	} else if n == 0 && initial != certainty {
		t.Errorf("no steps but initial certainty %v ≠ certainty %v", initial, certainty)
	}

	// A malformed trace limit is rejected, not ignored.
	resp, err := srv.Client().Get(srv.URL + "/debug/spans?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("/debug/spans?n=bogus status = %d, want 400", resp.StatusCode)
	}

	// Every ops route answers as on the other binaries, and nothing but
	// "/" reaches the UI.
	opstest.CheckRoutes(t, srv.Config.Handler, ops.Sinks{
		Metrics: env.reg, Spans: env.spans, SLO: env.slo, Calibration: env.cal,
		Profiles: env.captor, Model: func() any { return nil },
	})
	// With no sink configured, only the always-on routes and the model
	// document remain.
	opstest.CheckRoutes(t, newWebMux(ms, &webEnv{}), ops.Sinks{Model: func() any { return nil }})
	if resp, err := srv.Client().Get(srv.URL + "/no/such/page"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 404 {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}

	// /debug/calibration serves the per-bin reliability data recorded
	// by the audits above.
	var snap obs.CalibrationSnapshot
	if err := json.Unmarshal([]byte(get(srv.URL+"/debug/calibration")), &snap); err != nil {
		t.Fatalf("/debug/calibration is not JSON: %v", err)
	}
	if snap.Samples == 0 {
		t.Error("/debug/calibration shows no audited selections")
	}
	if len(snap.Bins) == 0 {
		t.Error("/debug/calibration has no bins")
	}

	// /debug/model reports the serving model version: trained once, so
	// version 1 from "train", with the refresher counters present (the
	// demo wires Config.Refresh).
	var model metaprobe.ModelInfo
	if err := json.Unmarshal([]byte(get(srv.URL+"/debug/model")), &model); err != nil {
		t.Fatalf("/debug/model is not JSON: %v", err)
	}
	if !model.Trained || model.Version != 1 || model.Source != "train" {
		t.Errorf("/debug/model = %+v, want trained v1 from train", model)
	}
	if model.Databases != len(ms.Databases()) {
		t.Errorf("/debug/model reports %d databases, want %d", model.Databases, len(ms.Databases()))
	}
	if model.Refresh == nil {
		t.Error("/debug/model missing refresher stats despite Config.Refresh")
	}
	// The UI home page surfaces the serving version too.
	if home := get(srv.URL + "/"); !strings.Contains(home, "serving model v1") {
		t.Error("home page missing the serving-model line")
	}

	// pprof is mounted.
	if body := get(srv.URL + "/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Error("/debug/pprof/ index missing")
	}

	// The continuous-profile store lists the heap capture taken above
	// and serves its raw blob.
	var captures []prof.Capture
	if err := json.Unmarshal([]byte(get(srv.URL+"/debug/profiles")), &captures); err != nil {
		t.Fatalf("/debug/profiles is not JSON: %v", err)
	}
	if len(captures) == 0 || captures[0].Kind != prof.KindHeap {
		t.Fatalf("/debug/profiles = %+v, want one heap capture", captures)
	}
	if blob := get(srv.URL + "/debug/profiles?latest=heap"); len(blob) == 0 {
		t.Error("/debug/profiles?latest=heap returned an empty blob")
	}
	if dump := get(srv.URL + "/debug/goroutines"); !strings.Contains(dump, "goroutine") {
		t.Error("/debug/goroutines missing goroutine dump")
	}

	// Runtime telemetry shows on the page and in /metrics; the queries
	// above also populated the per-stage attribution histograms.
	if home := get(srv.URL + "/"); !strings.Contains(home, "Runtime telemetry") ||
		!strings.Contains(home, "heap in use") {
		t.Error("home page missing the runtime-telemetry panel")
	}
	metrics = get(srv.URL + "/metrics")
	for _, want := range []string{
		"mp_runtime_heap_inuse_bytes",
		"mp_runtime_goroutines",
		`mp_prof_captures_total{kind="heap"}`,
		`mp_selection_stage_seconds{stage="rd_convolve"`,
		`mp_selection_stage_seconds{stage="ecor_dp"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
