package metaprobe

import (
	"context"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs/ops/opstest"
	"metaprobe/internal/obs/span"
)

// buildObservedMetasearcher is buildTestMetasearcher with metrics and
// span tracing switched on.
func buildObservedMetasearcher(t testing.TB) (*Metasearcher, []string, *Metrics, *SpanTracer) {
	t.Helper()
	reg := NewMetrics()
	spans := NewSpanTracer(0)
	ms, queries := buildTestMetasearcherWith(t, &Config{Metrics: reg, Spans: spans}, nil)
	return ms, queries, reg, spans
}

// readSelection decodes the selection span of traceID as served at
// /debug/spans.
func readSelection(t testing.TB, spans *SpanTracer, traceID string) opstest.Selection {
	t.Helper()
	sel, _ := opstest.ReadSelection(t, span.Handler(spans), traceID)
	return sel
}

func TestSelectionMetricsRecorded(t *testing.T) {
	ms, queries, reg, _ := buildObservedMetasearcher(t)
	// The series are registered with the metasearcher: a scrape before
	// the first query already shows them, at zero.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"metaprobe_select_latency_seconds_count 0", "# TYPE metaprobe_probes_total counter", `metaprobe_selections_total{reached="true"} 0`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition before the first query missing %q", want)
		}
	}
	for _, q := range queries[:8] {
		if _, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1); err != nil {
			t.Fatal(err)
		}
	}
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE metaprobe_select_latency_seconds summary",
		`metaprobe_select_latency_seconds{quantile="0.5"}`,
		"metaprobe_select_latency_seconds_count 8",
		"# TYPE metaprobe_selections_total counter",
		"# TYPE metaprobe_selection_certainty summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// All 8 selections are accounted for across the reached label.
	var total int64
	for _, reached := range []string{"true", "false"} {
		total += reg.Counter("metaprobe_selections_total", map[string]string{"reached": reached}).Value()
	}
	if total != 8 {
		t.Errorf("selections_total = %d, want 8", total)
	}
}

// TestSelectionRecordOnRootSpan reads every field the selection record
// carries off the root span of a real probing selection: the call's
// arguments, the model's estimates, the answer, and the per-probe
// certainty trajectory.
func TestSelectionRecordOnRootSpan(t *testing.T) {
	ms, queries, reg, spans := buildObservedMetasearcher(t)
	before := time.Now()
	res, err := ms.SelectWithCertainty(queries[0], 2, Partial, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := spans.Traces(0); len(got) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(got))
	}
	rec := readSelection(t, spans, res.TraceID)
	attrs := rec.Attrs

	// Header: the call's arguments and the correlation ID.
	if attrs["id"] != res.ID || res.ID == "" {
		t.Errorf("id attribute %q, result ID %q", attrs["id"], res.ID)
	}
	if attrs["query"] != queries[0] || attrs["k"] != "2" || attrs["metric"] != "partial" {
		t.Errorf("header attributes = %v", attrs)
	}
	if got := opstest.Float(t, attrs, "threshold"); got != 0.95 {
		t.Errorf("threshold = %v, want 0.95", got)
	}
	if rec.StartTime.Before(before) || rec.DurationMs <= 0 {
		t.Errorf("span window start=%v duration=%vms", rec.StartTime, rec.DurationMs)
	}

	// Estimates: one per database, in testbed order, equal to r̂.
	if !reflect.DeepEqual(rec.Databases, ms.Databases()) {
		t.Errorf("estimates keyed by %v, want testbed order %v", rec.Databases, ms.Databases())
	}
	for i, db := range ms.tb.Databases() {
		if want := ms.rel.Estimate(ms.sums.Summaries[i], queries[0]); rec.Estimates[i] != want {
			t.Errorf("estimate[%s] = %v, want %v", db.Name(), rec.Estimates[i], want)
		}
	}

	// Answer.
	if !reflect.DeepEqual(rec.Selected, res.Databases) {
		t.Errorf("selected %v, result %v", rec.Selected, res.Databases)
	}
	if got := opstest.Float(t, attrs, "certainty"); got != res.Certainty {
		t.Errorf("certainty %v, result %v", got, res.Certainty)
	}
	if attrs["reached"] != strconv.FormatBool(res.Reached) || attrs["probes"] != strconv.Itoa(res.Probes) {
		t.Errorf("reached/probes attributes = %v, result %+v", attrs, res)
	}
	if init := opstest.Float(t, attrs, "initial_certainty"); init < 0 || init > 1 {
		t.Errorf("initial certainty %v outside [0,1]", init)
	}

	// Trajectory: every folded probe, failed ones included, so the
	// record can only hold more steps than the result counts probes;
	// it ends on the returned certainty.
	if len(rec.Steps) < res.Probes || res.Probes == 0 {
		t.Fatalf("%d step events for %d probes (want a probing query)", len(rec.Steps), res.Probes)
	}
	for i, s := range rec.Steps {
		if ms.tb.IndexOf(s.DB) < 0 {
			t.Errorf("step %d names unknown database %q", i, s.DB)
		}
		if s.CertaintyAfter < 0 || s.CertaintyAfter > 1 {
			t.Errorf("step %d certainty-after %v outside [0,1]", i, s.CertaintyAfter)
		}
		if s.Err != "" {
			t.Errorf("step %d failed on a healthy testbed: %s", i, s.Err)
		}
		if got := reg.Counter("metaprobe_probes_total", map[string]string{"db": s.DB}).Value(); got != 1 {
			t.Errorf("probes_total{db=%s} = %d after one step on it", s.DB, got)
		}
	}
	if last := rec.Steps[len(rec.Steps)-1]; last.CertaintyAfter != res.Certainty {
		t.Errorf("trajectory ends at %v, result certainty %v", last.CertaintyAfter, res.Certainty)
	}
}

func TestPlainSelectRecorded(t *testing.T) {
	ms, queries, reg, spans := buildObservedMetasearcher(t)
	if _, _, err := ms.Select(queries[0], 1, Absolute); err != nil {
		t.Fatal(err)
	}
	traces := spans.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	rec := readSelection(t, spans, traces[0].TraceID)
	attrs := rec.Attrs
	if attrs["threshold"] != "0" || len(rec.Steps) != 0 || attrs["initial_certainty"] != attrs["certainty"] {
		t.Errorf("plain Select record: %d steps, attributes %v", len(rec.Steps), attrs)
	}
	if got := reg.Histogram("metaprobe_select_latency_seconds", nil).Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1", got)
	}
}

func TestNilObservabilityUnaffected(t *testing.T) {
	// The default config must behave exactly as before: no metrics, no
	// spans, identical results.
	ms, queries := buildTestMetasearcher(t)
	res, err := ms.SelectWithCertainty(queries[0], 2, Absolute, 0.9, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Databases) != 2 {
		t.Errorf("selected %v", res.Databases)
	}
	if res.ID != "" || res.TraceID != "" {
		t.Errorf("disabled path filled observability fields: %+v", res)
	}
}

func TestMetasearchRecordsOneTrace(t *testing.T) {
	ms, queries, _, spans := buildObservedMetasearcher(t)
	_, res, err := ms.Metasearch(queries[0], 2, Partial, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	traces := spans.Traces(0)
	if len(traces) != 1 || traces[0].Root != "metasearch" || traces[0].TraceID != res.TraceID {
		t.Fatalf("Metasearch traces = %+v, want one rooted at metasearch", traces)
	}
	roots := spans.Tree(res.TraceID)
	if rec := readSelection(t, spans, res.TraceID); rec.ParentID != roots[0].Span.SpanID {
		t.Errorf("selection span parented to %q, want the metasearch root %q", rec.ParentID, roots[0].Span.SpanID)
	}
}

// TestEverySinkAloneGetsIDAndClock pins the one "any sink configured"
// rule: whichever single sink is set, the selection is numbered and
// timed the same way. With only Spans set the ID used to stay empty, so
// the root span had no "id" to correlate with logs.
func TestEverySinkAloneGetsIDAndClock(t *testing.T) {
	spans := NewSpanTracer(0)
	reg := NewMetrics()
	for name, cfg := range map[string]*Config{
		"metrics": {Metrics: reg},
		"spans":   {Spans: spans},
	} {
		ms, queries := buildTestMetasearcherWith(t, cfg, nil)
		res, err := ms.SelectWithCertainty(queries[0], 2, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != "sel-000001" {
			t.Errorf("%s only: ID %q, want sel-000001", name, res.ID)
		}
	}
	// An unread clock would time the selection from the zero time.
	if h := reg.Histogram("metaprobe_select_latency_seconds", nil); h.Count() != 1 || h.Sum() > 60 {
		t.Errorf("metrics only: %d latency observations summing to %gs, want one timed from the call", h.Count(), h.Sum())
	}
	if traces := spans.Traces(0); len(traces) != 1 {
		t.Fatalf("spans only: %d traces, want 1", len(traces))
	} else if rec := readSelection(t, spans, traces[0].TraceID); rec.Attrs["id"] != "sel-000001" {
		t.Errorf("spans only: root span id attribute = %q, want sel-000001", rec.Attrs["id"])
	}
}

// TestStepAndStageEventsSurviveEventCap runs selections at t = 1.0 and
// unbounded probes over an 80-database testbed (the health testbed four
// times) with every backend down, so each probed database leaves a
// backend_excluded annotation on the root span. Where those plus the
// step and stage records exceed the per-span event cap, the records —
// written last — must not be what is dropped.
func TestStepAndStageEventsSurviveEventCap(t *testing.T) {
	var specs []corpus.DatabaseSpec
	for m := 0; m < 4; m++ {
		for _, spec := range corpus.HealthTestbed(0.005) {
			spec.Name += "-mirror" + strconv.Itoa(m)
			specs = append(specs, spec)
		}
	}
	var failers []*toggleFail
	spans := NewSpanTracer(0)
	ms, queries := buildTestMetasearcherOn(t, specs, &Config{Spans: spans}, func(i int, db Database) Database {
		f := &toggleFail{Database: db}
		failers = append(failers, f)
		return f
	})
	for _, f := range failers {
		f.down.Store(true)
	}

	overCap := 0
	for _, q := range queries[:10] {
		res, err := ms.SelectWithCertainty(q, 2, Absolute, 1.0, -1)
		if err != nil {
			t.Fatal(err)
		}
		rec := readSelection(t, spans, res.TraceID)
		if len(rec.Events) > 64 {
			overCap++
		}
		stages := 0
		for _, ev := range rec.Events {
			if ev.Name == "stage" {
				stages++
			}
		}
		wantStages := 4
		if res.ProbeFailures == 0 {
			wantStages = 2 // no probing round: rd_convolve and ecor_dp only
		}
		if len(rec.Steps) != res.ProbeFailures || stages != wantStages {
			t.Errorf("%q: %d step and %d stage events, want %d and %d (dropped_events=%q)",
				q, len(rec.Steps), stages, res.ProbeFailures, wantStages, rec.Attrs["dropped_events"])
		}
		for i, s := range rec.Steps {
			if s.Err == "" {
				t.Errorf("%q: step %d on %s carries no error though every backend is down", q, i, s.DB)
			}
		}
		if n := len(rec.Steps); n > 0 && rec.Steps[n-1].CertaintyAfter != res.Certainty {
			t.Errorf("%q: trajectory ends at %v, result certainty %v", q, rec.Steps[n-1].CertaintyAfter, res.Certainty)
		}
	}
	if overCap == 0 {
		t.Error("no selection put more than 64 events on its root span: the cap was never exercised")
	}
}

// TestObservabilityOverheadOnProbeBoundSelections bounds what the
// observability layers cost where selections are probe-bound, as they
// are against remote databases: one trained model serves the same
// workload behind backends that each add 20 ms per search, bare, then
// with a bound span tracer (every selection records its full span
// tree). The probe trajectories are identical, so the injected delay is
// too, and the traced configuration's mean selection latency must stay
// within 5 % of bare. Each mean is the best of three rounds, since
// interference from the rest of the machine only ever adds, and the two
// configurations take their rounds in turn, so a drift in the machine's
// speed during the test falls on both alike. Each first runs one round
// that is not timed: a fresh executor has measured no backend latency
// yet, so it keeps the lookahead shut for each backend's first probes
// and its first round runs some 5 % slower than every later one — the
// whole budget, were it one of the samples.
func TestObservabilityOverheadOnProbeBoundSelections(t *testing.T) {
	const (
		delay  = 20 * time.Millisecond
		budget = 0.05
	)
	trained, queries := buildTestMetasearcher(t)
	queries = queries[:20]
	path := filepath.Join(t.TempDir(), "model.json")
	if err := trained.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	build := func(cfg *Config) *Metasearcher {
		dbs := make([]Database, trained.tb.Len())
		for i := range dbs {
			dbs[i] = hidden.NewLatency(trained.tb.DB(i), delay)
		}
		ms, err := NewFromModel(dbs, path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	probes := -1
	round := func(ms *Metasearcher) time.Duration {
		n := 0
		start := time.Now()
		for _, q := range queries {
			res, err := ms.SelectWithCertaintyContext(context.Background(), q, 2, Absolute, 0.99, -1)
			if err != nil {
				t.Fatal(err)
			}
			n += res.Probes
		}
		took := time.Since(start)
		if probes < 0 {
			probes = n
		} else if n != probes {
			t.Fatalf("a round spent %d probes, the first spent %d: the configurations are not comparable", n, probes)
		}
		return took
	}
	reg, spans := NewMetrics(), NewSpanTracer(0)
	spans.Bind(reg)
	bareMS, tracedMS := build(&Config{Metrics: NewMetrics()}), build(&Config{Metrics: reg, Spans: spans})
	round(bareMS) // warm-up
	round(tracedMS)
	bare, traced := round(bareMS), round(tracedMS)
	for i := 1; i < 3; i++ {
		bare = min(bare, round(bareMS))
		traced = min(traced, round(tracedMS))
	}
	frac := float64(traced-bare) / float64(bare)
	t.Logf("span tracing: %v per selection against %v bare (%+.2f%%)", traced/time.Duration(len(queries)), bare/time.Duration(len(queries)), 100*frac)
	if frac > budget {
		t.Errorf("span tracing adds %.1f%% to the mean selection latency, budget %.0f%%", 100*frac, 100*budget)
	}
	if spans.Recorded() == 0 {
		t.Error("the traced configuration recorded no spans")
	}
}
