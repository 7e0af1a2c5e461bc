package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/ops/opstest"
	"metaprobe/internal/obs/span"
)

// TestHandlerSelect drives the full HTTP surface: GET and POST
// selection, readiness, metrics and the multi-tenant model view.
func TestHandlerSelect(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, qs := buildTestServer(t, Config{Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Readiness and liveness.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// GET selection.
	code, body := get("/v1/select?q=" + url.QueryEscape(qs[0]) + "&k=3&t=0.9")
	if code != http.StatusOK {
		t.Fatalf("GET select = %d %s", code, body)
	}
	var viaGet SelectResponse
	if err := json.Unmarshal(body, &viaGet); err != nil {
		t.Fatal(err)
	}
	if viaGet.Tier != "full" || viaGet.Tenant != DefaultTenant || len(viaGet.Databases) != 3 {
		t.Fatalf("GET select answered %+v", viaGet)
	}

	// POST selection with the same parameters answers identically.
	resp, err := http.Post(ts.URL+"/v1/select", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query": %q, "k": 3, "threshold": 0.9}`, qs[0])))
	if err != nil {
		t.Fatal(err)
	}
	var viaPost SelectResponse
	if err := json.NewDecoder(resp.Body).Decode(&viaPost); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST select = %d", resp.StatusCode)
	}
	if fmt.Sprint(viaPost.Databases) != fmt.Sprint(viaGet.Databases) || viaPost.Certainty != viaGet.Certainty {
		t.Fatalf("POST %+v diverged from GET %+v", viaPost, viaGet)
	}

	// Error mapping.
	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/select", http.StatusBadRequest},
		{"/v1/select?q=x&k=frog", http.StatusBadRequest},
		{"/v1/select?q=x&metric=bogus", http.StatusBadRequest},
		{"/v1/select?q=x&tenant=nobody", http.StatusNotFound},
	} {
		if code, _ := get(c.path); code != c.want {
			t.Errorf("GET %s = %d, want %d", c.path, code, c.want)
		}
	}

	// Tenants and the multi-tenant model document.
	if code, body := get("/v1/tenants"); code != http.StatusOK || !strings.Contains(string(body), DefaultTenant) {
		t.Fatalf("/v1/tenants = %d %s", code, body)
	}
	code, body = get("/debug/model")
	if code != http.StatusOK {
		t.Fatalf("/debug/model = %d", code)
	}
	var models ModelsInfo
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	ti, ok := models.Tenants[DefaultTenant]
	if !ok || !ti.Trained || ti.Tenant != DefaultTenant {
		t.Fatalf("/debug/model missing the default tenant: %s", body)
	}
	if models.Skew.Tenants != 1 {
		t.Errorf("skew.tenants = %d, want 1", models.Skew.Tenants)
	}

	// Metrics exposition includes the service series, with zero sheds.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"mp_server_requests_total", "mp_batch_runs_total", "mp_shed_total", "mp_server_inflight"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(string(body), `mp_shed_total{reason="overload",tier="rd_only"} 0`) {
		t.Error("idle server shows non-zero sheds")
	}

	// The ops routes are the shared tree; without Config.Spans there is
	// no /debug/spans.
	opstest.CheckRoutes(t, s.Handler(), ops.Sinks{Metrics: reg, Model: func() any { return nil }})

	// Drain flips readiness to 503 and selection to 503.
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", code)
	}
	if code, _ := get("/v1/select?q=x"); code != http.StatusServiceUnavailable {
		t.Errorf("draining select = %d, want 503", code)
	}
}

// searchCounter counts the searches that reach a backend.
type searchCounter struct {
	metaprobe.Database
	n *atomic.Int64
}

func (c searchCounter) Search(query string, topK int) (hidden.Result, error) {
	c.n.Add(1)
	return c.Database.Search(query, topK)
}

// selectRow is one /v1/select request as the tests and the fuzzer's seeds
// spell it: a method, a raw query string and a body.
type selectRow struct{ method, query, body string }

// badSelectRequests are the requests check must refuse, over query q.
func badSelectRequests(q string) []selectRow {
	get := func(params string) selectRow { return selectRow{"GET", "q=" + url.QueryEscape(q) + "&" + params, ""} }
	post := func(fields string) selectRow {
		return selectRow{"POST", "", fmt.Sprintf(`{"query": %q, %s}`, q, fields)}
	}
	return []selectRow{
		get("t=NaN"), get("t=Inf"), get("t=7"), post(`"threshold": 7`),
		get("k=999"), post(`"k": 999`),
		// Negative values are mistakes too, not "unset": only the zero
		// value takes the default.
		get("t=-0.5"), post(`"threshold": -0.5`),
		get("k=-3"), post(`"k": -3`),
	}
}

// TestHandlerRejectsBadThresholdAndK: a threshold that is NaN or outside
// [0, 1] and a k beyond the tenant's databases are the caller's
// mistakes. They are answered 400 and counted as client errors before
// the request is admitted: no backend is searched and the tenant's
// selection series, which measure serving, do not move. (NaN used to
// pass both range checks, meet no certainty and so probe every database
// of the tenant; t=7 and k=999 reached the engine and came back 500.)
func TestHandlerRejectsBadThresholdAndK(t *testing.T) {
	reg := obs.NewRegistry()
	var searches atomic.Int64
	ms, qs := buildTestMetasearcher(t, &metaprobe.Config{Metrics: reg}, func(db metaprobe.Database) metaprobe.Database {
		return searchCounter{db, &searches}
	})
	s := New(Config{Metrics: reg})
	if err := s.AddTenant(DefaultTenant, ms); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	trained, served := searches.Load(), servedSelections(reg)

	var bad []*http.Request
	for _, row := range badSelectRequests(qs[0]) {
		bad = append(bad, httptest.NewRequest(row.method, "/v1/select?"+row.query, strings.NewReader(row.body)))
	}
	for _, r := range bad {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s = %d %s, want 400", r.Method, r.URL, rec.Code, rec.Body)
		}
	}
	if got := searches.Load() - trained; got != 0 {
		t.Errorf("rejected requests caused %d backend searches, want 0", got)
	}
	if got := servedSelections(reg); got != served {
		t.Errorf("selection series moved %v -> %v: client errors are not serving", served, got)
	}
	if got := reg.Counter("mp_server_errors_total", obs.Labels{"kind": "client"}).Value(); got != int64(len(bad)) {
		t.Errorf(`mp_server_errors_total{kind="client"} = %d, want %d`, got, len(bad))
	}
	if got := reg.Counter("mp_server_errors_total", obs.Labels{"kind": "internal"}).Value(); got != 0 {
		t.Errorf(`mp_server_errors_total{kind="internal"} = %d, want 0`, got)
	}
	if st := s.Stats(); st.PeakInflight != 0 {
		t.Errorf("peak inflight %d: a rejected request was admitted", st.PeakInflight)
	}

	// The same query with a legal threshold is served, probes, and moves
	// the series the refusals left alone.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/select?q="+url.QueryEscape(qs[0])+"&t=1", nil))
	if rec.Code != http.StatusOK || searches.Load() == trained || servedSelections(reg) == served {
		t.Errorf("t=1 = %d %s with %d searches, selection series %v, want a probing, counted 200", rec.Code, rec.Body, searches.Load()-trained, servedSelections(reg))
	}
}

// TestHandlerSelectionRecord reads one /v1/select request's record back
// from the daemon's own handler tree: the response's traceId resolves
// at /debug/spans to a root "selection" span carrying the request's
// arguments, r̂ per database, the answer and the probe trajectory — and
// the ops routes around it are the shared tree.
func TestHandlerSelectionRecord(t *testing.T) {
	reg := obs.NewRegistry()
	spans := span.NewTracer(0)
	ms, qs := buildTestMetasearcher(t, &metaprobe.Config{Metrics: reg, Spans: spans}, nil)
	s := New(Config{Metrics: reg, Spans: spans})
	if err := s.AddTenant(DefaultTenant, ms); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	before := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/select", strings.NewReader(
		fmt.Sprintf(`{"query": %q, "k": 2, "metric": "partial", "threshold": 0.95}`, qs[0]))))
	var resp SelectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("POST select = %d %s (%v)", rec.Code, rec.Body, err)
	}
	if resp.TraceID == "" || resp.ID == "" || resp.Probes == 0 {
		t.Fatalf("response %+v: want a traced, probing selection", resp)
	}

	sel, roots := opstest.ReadSelection(t, h, resp.TraceID)
	if len(roots) != 1 || roots[0] != sel.Node {
		t.Fatalf("trace %s: the selection span is not the one root", resp.TraceID)
	}
	a := sel.Attrs
	if a["id"] != resp.ID || a["query"] != qs[0] || a["k"] != "2" || a["metric"] != "partial" || a["threshold"] != "0.95" {
		t.Errorf("header attributes = %v, response %+v", a, resp)
	}
	if sel.StartTime.Before(before) || sel.DurationMs <= 0 || sel.DurationMs > resp.ElapsedMs {
		t.Errorf("selection window start=%v duration=%vms inside a %vms request", sel.StartTime, sel.DurationMs, resp.ElapsedMs)
	}
	if !reflect.DeepEqual(sel.Databases, ms.Databases()) {
		t.Errorf("estimates keyed by %v, want testbed order %v", sel.Databases, ms.Databases())
	}
	if !reflect.DeepEqual(sel.Selected, resp.Databases) {
		t.Errorf("selected %v, response %v", sel.Selected, resp.Databases)
	}
	if got := opstest.Float(t, a, "certainty"); got != resp.Certainty {
		t.Errorf("certainty %v, response %v", got, resp.Certainty)
	}
	if a["reached"] != strconv.FormatBool(resp.Reached) || a["probes"] != strconv.Itoa(resp.Probes) {
		t.Errorf("reached/probes attributes = %v, response %+v", a, resp)
	}
	if init := opstest.Float(t, a, "initial_certainty"); init < 0 || init > resp.Certainty {
		t.Errorf("initial certainty %v, final %v", init, resp.Certainty)
	}
	if len(sel.Steps) != resp.Probes {
		t.Fatalf("%d step events, response reports %d probes on a healthy testbed", len(sel.Steps), resp.Probes)
	}
	for i, st := range sel.Steps {
		if !slices.Contains(sel.Databases, st.DB) || st.Err != "" || st.Usefulness <= 0 {
			t.Errorf("step %d = %+v, want a useful healthy probe of a mediated database", i, st)
		}
	}
	if last := sel.Steps[len(sel.Steps)-1]; last.CertaintyAfter != resp.Certainty {
		t.Errorf("trajectory ends at %v, response certainty %v", last.CertaintyAfter, resp.Certainty)
	}

	opstest.CheckRoutes(t, h, ops.Sinks{Metrics: reg, Spans: spans, Model: func() any { return nil }})
}

// docRoute finds the daemon's routes in prose: a /v1/…, /debug/…,
// /metrics, /healthz or /readyz path that does not continue a longer
// word (runtime/metrics is a package, not a route).
var docRoute = regexp.MustCompile(`(?:^|[^A-Za-z])(/v1/[a-z]+|/debug/[a-z]+(?:/[a-z]+)*/?|/metrics|/healthz|/readyz)`)

// TestDocsNameOnlyServedRoutes reads README.md and DESIGN.md and asks
// the daemon's handler, built the way cmd/metaprobed builds it, for
// every route they name: a walkthrough may not send an operator to a
// 404. The two pprof endpoints that block for seconds are looked up in
// the mux instead of fetched.
func TestDocsNameOnlyServedRoutes(t *testing.T) {
	s := New(Config{Metrics: obs.NewRegistry(), Spans: span.NewTracer(0)})
	t.Cleanup(s.Close)
	mux := s.Handler().(*http.ServeMux)
	blocking := map[string]bool{"/debug/pprof/profile": true, "/debug/pprof/trace": true}

	named := make(map[string]string) // route → the first file naming it
	for _, file := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRoute.FindAllSubmatch(text, -1) {
			if _, ok := named[string(m[1])]; !ok {
				named[string(m[1])] = file
			}
		}
	}
	if _, ok := named["/v1/select"]; !ok {
		t.Fatalf("found no /v1/select among the %d routes the docs name: %v", len(named), named)
	}
	for route, file := range named {
		r := httptest.NewRequest("GET", route, nil)
		if blocking[route] {
			if _, pattern := mux.Handler(r); pattern != route {
				t.Errorf("%s names %s, which the daemon's mux routes to %q", file, route, pattern)
			}
			continue
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		if rec.Code == http.StatusNotFound {
			t.Errorf("%s names %s, which the daemon answers 404", file, route)
		}
	}
}
