package metaprobe

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/leakcheck"
	"metaprobe/internal/obs/span"
)

// TestSelectionSpanTreeAndTraceIndex drives one traced selection end to
// end through the public API, over databases behind HTTP: the result
// carries a trace ID whose recorded tree is rooted at a "selection" span
// with exactly one probe child per probe spent and nothing below them —
// each probe's answer page is an http_response event on its probe span
// — and /debug/spans?n=1, where an operator looks for the slow request,
// lists that trace with the root span's duration.
func TestSelectionSpanTreeAndTraceIndex(t *testing.T) {
	tracer := NewSpanTracer(256)
	ms, queries := buildTestMetasearcherWith(t, &Config{Metrics: NewMetrics(), Spans: tracer}, func(_ int, db Database) Database {
		srv := httptest.NewServer(hidden.NewServer(db))
		t.Cleanup(srv.Close)
		return NewHTTPDatabase(db.Name(), srv.URL)
	})

	res, err := ms.SelectWithCertaintyContext(context.Background(), queries[0], 2, Partial, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("traced selection returned no trace ID")
	}

	roots := tracer.Tree(res.TraceID)
	if len(roots) != 1 || roots[0].Span.Name != "selection" {
		t.Fatalf("trace %s: got %d recorded roots, want the selection span", res.TraceID, len(roots))
	}
	root := roots[0].Span
	if root.Attrs["query"] != queries[0] {
		t.Errorf("root query attr = %q, want %q", root.Attrs["query"], queries[0])
	}
	if res.Probes == 0 {
		t.Fatalf("%q reached %v without a probe: nothing to trace", queries[0], res.Certainty)
	}
	probeSpans := 0
	for _, n := range span.Flatten(roots)[1:] {
		if n.Span.Name != "probe" || n.Span.ParentID != root.SpanID {
			t.Errorf("span %q under %q in a selection trace, want only probe spans under the root", n.Span.Name, n.Span.ParentID)
			continue
		}
		probeSpans++
		pages := 0
		for _, ev := range n.Span.Events {
			if ev.Name == "http_response" && ev.Attrs["status"] == "200" {
				pages++
			}
		}
		if pages != 1 {
			t.Errorf("probe of %s carries %d http_response events, want its one answer page: %+v", n.Span.Attrs["backend"], pages, n.Span.Events)
		}
	}
	if probeSpans != res.Probes {
		t.Errorf("trace holds %d probe spans, result reports %d probes", probeSpans, res.Probes)
	}

	rec := httptest.NewRecorder()
	span.Handler(tracer).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?n=1", nil))
	var index struct {
		Traces []struct {
			TraceID    string  `json:"traceId"`
			DurationMs float64 `json:"durationMs"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &index); err != nil {
		t.Fatalf("/debug/spans?n=1 = %d %s: %v", rec.Code, rec.Body, err)
	}
	want := float64(root.Duration()) / float64(time.Millisecond)
	if len(index.Traces) != 1 || index.Traces[0].TraceID != res.TraceID || index.Traces[0].DurationMs != want {
		t.Errorf("/debug/spans?n=1 lists %+v, want trace %s at %v ms", index.Traces, res.TraceID, want)
	}
}

// TestReady covers the readiness check's trained gate; the wedged-
// refresher arm is exercised by the refresh package's streak tests.
func TestReady(t *testing.T) {
	ms, _ := buildTestMetasearcher(t)
	if err := ms.Ready(); err != nil {
		t.Errorf("trained metasearcher not ready: %v", err)
	}
	var untrained Metasearcher
	if err := untrained.Ready(); err == nil || !strings.Contains(err.Error(), "not trained") {
		t.Errorf("untrained Ready() = %v, want not-trained error", err)
	}
}

// TestSelectionSpanRankWork: the root span says what the greedy sweeps
// of a many-probe selection paid for — candidates swept and skipped,
// hypotheses evaluated, k-sets scored — so "why was this selection
// slow?" has an answer in the trace; with no span sink there is no
// record and nothing is formatted for one.
func TestSelectionSpanRankWork(t *testing.T) {
	tracer := NewSpanTracer(256)
	ms, queries := buildTestMetasearcherWith(t, &Config{Spans: tracer}, nil)
	var slow *SelectionResult
	for _, q := range queries {
		res, err := ms.SelectWithCertaintyContext(context.Background(), q, 2, Absolute, 0.99, -1)
		if err != nil {
			t.Fatal(err)
		}
		if slow == nil || res.Probes > slow.Probes {
			slow = res
		}
	}
	if slow.Probes < 3 {
		t.Fatalf("no test query needed more than %d probes: nothing exercises the sweep", slow.Probes)
	}
	attrs := tracer.Tree(slow.TraceID)[0].Span.Attrs
	work := map[string]int{}
	for _, name := range []string{"rank_swept", "rank_skipped", "rank_abandoned", "rank_hypotheses", "rank_sets", "rank_sets_shared", "rank_grid_reuses"} {
		v, err := strconv.Atoi(attrs[name])
		if err != nil {
			t.Fatalf("root span attribute %s = %q: %v", name, attrs[name], err)
		}
		work[name] = v
	}
	// Every step evaluates at least one candidate, a candidate has at
	// least two outcomes, and every outcome scores at least one k-set.
	if work["rank_swept"] < slow.Probes || work["rank_hypotheses"] < 2*work["rank_swept"] || work["rank_sets"] < work["rank_hypotheses"] {
		t.Errorf("rank work %v does not add up for a selection of %d probes", work, slow.Probes)
	}
	// A candidate's later outcomes score sets its first one scored, and
	// every probe but a re-probe leaves the rest of the grid standing.
	if work["rank_sets_shared"] <= 0 || work["rank_sets_shared"] > work["rank_sets"] || work["rank_grid_reuses"] <= 0 || work["rank_grid_reuses"] > slow.Probes {
		t.Errorf("rank work %v: want 0 < rank_sets_shared ≤ rank_sets and 0 < rank_grid_reuses ≤ %d probes", work, slow.Probes)
	}

	reg := NewMetrics()
	quiet, _ := buildTestMetasearcherWith(t, &Config{Metrics: reg}, nil)
	res, err := quiet.SelectWithCertaintyContext(context.Background(), queries[0], 2, Absolute, 0.99, -1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" || strings.Contains(sb.String(), "rank_") {
		t.Errorf("without a span sink the rank work left a record: trace %q, exposition\n%s", res.TraceID, sb.String())
	}
}

// farDB answers from memory until delay is set, and that late from then
// on, so training stays fast and serving is probe-bound.
type farDB struct {
	Database
	delay *atomic.Int64 // nanoseconds
}

func (d farDB) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	time.Sleep(time.Duration(d.delay.Load()))
	return d.Database.SearchContext(ctx, query, topK)
}

// TestSelectionSpanAheadWork: the root span says what the loop thought
// out behind its probes. Over in-memory backends, which answer faster
// than a rank, no lookahead ever starts and all seven attributes read
// zero; over backends milliseconds away lookaheads run, their time lies
// inside the probe stage, the long trajectories among them start wide,
// and every answer and probe count is what the in-memory run gave — the
// overlap changes no selection and no probe the loop folds.
func TestSelectionSpanAheadWork(t *testing.T) {
	leakcheck.Check(t)
	aheadAttrs := []string{"ahead_certain", "ahead_probable", "ahead_disagreed", "ahead_stops", "ahead_abandoned", "ahead_wide", "ahead_us"}
	var delay atomic.Int64
	tracer := NewSpanTracer(1024)
	// All twenty databases: a rank over them costs what it does when
	// serving, many times an in-memory search.
	ms, queries := buildTestMetasearcherOn(t, corpus.HealthTestbed(0.01), &Config{Spans: tracer}, func(_ int, db Database) Database {
		return farDB{Database: db, delay: &delay}
	})
	run := func(q string) (*SelectionResult, map[string]int, float64) {
		t.Helper()
		res, err := ms.SelectWithCertaintyContext(context.Background(), q, 3, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		root := tracer.Tree(res.TraceID)[0].Span
		ahead := map[string]int{}
		for _, name := range aheadAttrs {
			v, err := strconv.Atoi(root.Attrs[name])
			if err != nil {
				t.Fatalf("root span attribute %s = %q: %v", name, root.Attrs[name], err)
			}
			ahead[name] = v
		}
		probeSec := 0.0
		for _, ev := range root.Events {
			if ev.Name == "stage" && ev.Attrs["stage"] == "probe" {
				probeSec, _ = strconv.ParseFloat(ev.Attrs["seconds"], 64)
			}
		}
		return res, ahead, probeSec
	}

	near := make([]*SelectionResult, len(queries))
	for i, q := range queries {
		res, ahead, _ := run(q)
		near[i] = res
		for name, v := range ahead {
			if v != 0 {
				t.Fatalf("%q over in-memory backends: %s = %d, want no lookahead at all", q, name, v)
			}
		}
	}

	delay.Store(int64(2 * time.Millisecond))
	total := map[string]int{}
	longest := 0
	for i, q := range queries {
		res, ahead, probeSec := run(q)
		if res.Probes > near[longest].Probes {
			longest = i
		}
		if !reflect.DeepEqual(res.Databases, near[i].Databases) || res.Probes != near[i].Probes || res.Certainty != near[i].Certainty {
			t.Fatalf("%q: far backends gave %v after %d probes (%v), in-memory ones %v after %d (%v)",
				q, res.Databases, res.Probes, res.Certainty, near[i].Databases, near[i].Probes, near[i].Certainty)
		}
		if float64(ahead["ahead_us"])/1e6 > probeSec {
			t.Errorf("%q: %d µs of lookahead in a probe stage of %.6f s", q, ahead["ahead_us"], probeSec)
		}
		for name, v := range ahead {
			total[name] += v
		}
	}
	if total["ahead_certain"]+total["ahead_probable"] == 0 || total["ahead_us"] == 0 {
		t.Errorf("no lookahead started a successor over %d probe-bound selections: %v", len(queries), total)
	}
	t.Logf("lookaheads over %d probe-bound selections: %v", len(queries), total)

	// The longest trajectory behind backends slow enough for a wide
	// lookahead to finish under the race detector too. The executor's
	// latency readings lag by a few probes, hence a few tries.
	q := queries[longest]
	if near[longest].Probes <= 7 {
		t.Fatalf("the longest of %d selections takes %d probes: none starts wide", len(queries), near[longest].Probes)
	}
	delay.Store(int64(40 * time.Millisecond))
	wide := 0
	for try := 0; try < 3 && wide == 0; try++ {
		res, ahead, _ := run(q)
		if !reflect.DeepEqual(res.Databases, near[longest].Databases) || res.Probes != near[longest].Probes {
			t.Fatalf("%q: slow backends gave %v after %d probes, in-memory ones %v after %d", q, res.Databases, res.Probes, near[longest].Databases, near[longest].Probes)
		}
		wide = ahead["ahead_wide"]
	}
	if wide == 0 {
		t.Errorf("%q: %d probes behind 40 ms backends, and no lookahead started wide", q, near[longest].Probes)
	}
}
