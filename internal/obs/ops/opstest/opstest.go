// Package opstest checks an HTTP handler against the shared ops tree:
// one route table for every binary that calls ops.Mount, one parser for
// the /metrics body it declares, and one reader for the per-request
// record on the root "selection" span.
package opstest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/span"
)

// routes is every path ops.Mount knows (bar the two pprof endpoints
// that block for seconds), the content type it answers with, and
// whether the given sinks mount it.
var routes = []struct {
	path, contentType string
	mounted           func(ops.Sinks) bool
}{
	{"/healthz", "text/plain", always},
	{"/readyz", "text/plain", always},
	{"/metrics", "text/plain; version=0.0.4", func(s ops.Sinks) bool { return s.Metrics != nil }},
	{"/debug/spans", "application/json", func(s ops.Sinks) bool { return s.Spans != nil }},
	{"/debug/model", "application/json", func(s ops.Sinks) bool { return s.Model != nil }},
	{"/debug/pprof/goroutine?debug=2", "text/plain", always},
	{"/debug/pprof/", "text/html", always},
	{"/debug/pprof/cmdline", "text/plain", always},
	{"/debug/pprof/symbol", "text/plain", always},
}

func always(ops.Sinks) bool { return true }

// CheckRoutes walks the route table over h: a route whose sink is set
// in want must answer 200 with its content type, any other 404.
func CheckRoutes(t *testing.T, h http.Handler, want ops.Sinks) {
	t.Helper()
	for _, r := range routes {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", r.path, nil))
		if !r.mounted(want) {
			if rec.Code != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404 (its sink is nil)", r.path, rec.Code)
			}
			continue
		}
		if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || !strings.HasPrefix(ct, r.contentType) {
			t.Errorf("GET %s = %d %q, want 200 %s", r.path, rec.Code, ct, r.contentType)
		}
	}
}

// label is one name="value" pair, with the format's three escapes.
const label = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`

var (
	// sample is name{labels} value; the format's optional timestamp is
	// not written here, so it is refused.
	sample   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{((?:` + label + `,)*(?:` + label + `)?)\})? (\S+)$`)
	labels   = regexp.MustCompile(label)
	typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
)

// CheckExposition parses body as the Prometheus text format, version
// 0.0.4, that /metrics declares: every line but a comment is
// name{labels} value; every sample belongs to the family of the # TYPE
// line above it — has its name, or for a summary that name's _sum or
// _count; and only a summary's samples carry a quantile label.
func CheckExposition(t testing.TB, body string) {
	t.Helper()
	var family, kind string
	for i, line := range strings.Split(body, "\n") {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			family, kind = m[1], m[2]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d is not name{labels} value: %q", i+1, line)
			continue
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("line %d: value %q: %v", i+1, m[3], err)
		}
		name, summary := m[1], kind == "summary"
		if name != family && !(summary && (name == family+"_sum" || name == family+"_count")) {
			t.Errorf("line %d: sample %s is not of family %s (%s)", i+1, name, family, kind)
		}
		for _, pair := range labels.FindAllString(m[2], -1) {
			if strings.HasPrefix(pair, `quantile="`) && !(summary && name == family) {
				t.Errorf("line %d: quantile label on %s, not a summary's quantile sample", i+1, name)
			}
		}
	}
}

// Selection is the root "selection" span of one trace, decoded.
type Selection struct {
	// Node is the span as /debug/spans?trace=<id> serves it.
	*span.Node
	// Databases and Estimates are the keys and values of the estimates
	// attribute, in the order written (testbed order).
	Databases []string
	Estimates []float64
	Selected  []string
	Steps     []Step
}

// Step is one "step" event: a probe the loop folded.
type Step struct {
	DB                                string
	Usefulness, Value, CertaintyAfter float64
	Err                               string
}

// Float parses attribute key; the facade writes floats so that they
// parse back exactly.
func Float(t testing.TB, attrs map[string]string, key string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(attrs[key], 64)
	if err != nil {
		t.Fatalf("attribute %s = %q: %v", key, attrs[key], err)
	}
	return v
}

// ReadSelection fetches /debug/spans?trace=<traceID> from h — the way
// an operator reads a request's record — and decodes the selection
// span in it. roots is the whole tree, for checks on its shape.
func ReadSelection(t testing.TB, h http.Handler, traceID string) (sel Selection, roots []*span.Node) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?trace="+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/spans?trace=%s = %d %s", traceID, rec.Code, rec.Body)
	}
	var doc struct {
		Spans []*span.Node `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/spans?trace=%s is not JSON: %v", traceID, err)
	}
	for _, n := range span.Flatten(doc.Spans) {
		if n.Name == "selection" {
			sel.Node = n
		}
	}
	if sel.Node == nil {
		t.Fatalf("trace %s holds no selection span", traceID)
	}
	// The estimates attribute is a JSON object whose key order carries
	// the testbed order, so walk its tokens rather than unmarshal to a
	// map.
	dec := json.NewDecoder(strings.NewReader(sel.Attrs["estimates"]))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("estimates attribute %q is not a JSON object", sel.Attrs["estimates"])
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("estimate of %v: %v", key, err)
		}
		sel.Databases = append(sel.Databases, key.(string))
		sel.Estimates = append(sel.Estimates, v)
	}
	if err := json.Unmarshal([]byte(sel.Attrs["selected"]), &sel.Selected); err != nil {
		t.Fatalf("selected attribute %q: %v", sel.Attrs["selected"], err)
	}
	for _, ev := range sel.Events {
		if ev.Name != "step" {
			continue
		}
		sel.Steps = append(sel.Steps, Step{
			DB:             ev.Attrs["db"],
			Usefulness:     Float(t, ev.Attrs, "usefulness"),
			Value:          Float(t, ev.Attrs, "value"),
			CertaintyAfter: Float(t, ev.Attrs, "certainty_after"),
			Err:            ev.Attrs["error"],
		})
	}
	return sel, doc.Spans
}
