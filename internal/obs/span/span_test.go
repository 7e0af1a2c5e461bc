package span

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"metaprobe/internal/obs"
)

var (
	traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)
	spanIDRe  = regexp.MustCompile(`^[0-9a-f]{16}$`)
)

func TestStartParenting(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.Start(context.Background(), "selection")
	if root == nil {
		t.Fatal("nil root span")
	}
	if !traceIDRe.MatchString(root.TraceID) {
		t.Errorf("trace ID %q not 32 hex chars", root.TraceID)
	}
	if !spanIDRe.MatchString(root.SpanID) {
		t.Errorf("span ID %q not 16 hex chars", root.SpanID)
	}
	if root.ParentID != "" {
		t.Errorf("root has parent %q", root.ParentID)
	}

	cctx, child := Start(ctx, "probe")
	if child.TraceID != root.TraceID {
		t.Errorf("child trace %q != root trace %q", child.TraceID, root.TraceID)
	}
	if child.ParentID != root.SpanID {
		t.Errorf("child parent %q != root span %q", child.ParentID, root.SpanID)
	}
	_, grand := Start(cctx, "attempt")
	if grand.ParentID != child.SpanID {
		t.Errorf("grandchild parent %q != child span %q", grand.ParentID, child.SpanID)
	}
	grand.End()
	child.End()
	root.End()
	if got := tr.Recorded(); got != 3 {
		t.Errorf("recorded = %d, want 3", got)
	}
	spans := tr.TraceSpans(root.TraceID)
	if len(spans) != 3 {
		t.Fatalf("TraceSpans returned %d spans, want 3", len(spans))
	}
	if spans[0].Name != "selection" {
		t.Errorf("first span by start time = %q, want selection", spans[0].Name)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All of these must no-op without panicking.
	s.SetAttr("k", "v")
	s.AddEvent("e", "a", "b")
	s.EndErr(errors.New("boom"))
	s.End()
	if s.Duration() != 0 || s.Trace() != "" {
		t.Error("nil span reported nonzero state")
	}
	if _, c := Start(ctx, "child"); c != nil {
		t.Error("Start without ambient span returned a span")
	}
	if tr.Recorded() != 0 || tr.Dropped() != 0 || tr.TraceSpans("ff") != nil {
		t.Error("nil tracer reported state")
	}
	tr.Bind(nil)
	if FromContext(nil) != nil {
		t.Error("FromContext(nil) != nil")
	}
}

func TestAttrsEventsAndError(t *testing.T) {
	tr := NewTracer(16)
	_, s := tr.Start(context.Background(), "op")
	s.SetAttr("db", "PubMed")
	s.AddEvent("retry", "attempt", "2")
	s.EndErr(errors.New("backend down"))
	// Mutation after End must not stick.
	s.SetAttr("late", "x")
	s.AddEvent("late")

	got := tr.TraceSpans(s.TraceID)[0]
	if got.Attrs["db"] != "PubMed" {
		t.Errorf("attr db = %q", got.Attrs["db"])
	}
	if _, ok := got.Attrs["late"]; ok {
		t.Error("attr set after End was recorded")
	}
	if len(got.Events) != 1 || got.Events[0].Name != "retry" || got.Events[0].Attrs["attempt"] != "2" {
		t.Errorf("events = %+v", got.Events)
	}
	if got.Error != "backend down" {
		t.Errorf("error = %q", got.Error)
	}
	if got.Duration() <= 0 {
		t.Error("ended span has non-positive duration")
	}
}

func TestEventCap(t *testing.T) {
	tr := NewTracer(4)
	_, s := tr.Start(context.Background(), "op")
	for i := 0; i < maxEventsPerSpan+5; i++ {
		s.AddEvent("e")
	}
	// A record written after the annotations filled the cap is kept.
	s.AddRecord("step", "db", "a")
	s.End()
	got := tr.TraceSpans(s.TraceID)[0]
	if len(got.Events) != maxEventsPerSpan+1 {
		t.Errorf("events = %d, want cap %d plus the record", len(got.Events), maxEventsPerSpan)
	}
	if last := got.Events[len(got.Events)-1]; last.Name != "step" || last.Attrs["db"] != "a" {
		t.Errorf("last event = %+v, want the step record", last)
	}
	if got.Attrs["dropped_events"] != "5" {
		t.Errorf("dropped_events attr = %q, want 5", got.Attrs["dropped_events"])
	}
}

func TestStoreOverflowIncrementsDropped(t *testing.T) {
	tr := NewTracer(8)
	var lastTrace string
	for i := 0; i < 20; i++ {
		_, s := tr.Start(context.Background(), "op")
		lastTrace = s.TraceID
		s.End()
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("dropped = %d, want 12", got)
	}
	if got := tr.Recorded(); got != 20 {
		t.Errorf("recorded = %d, want 20", got)
	}
	if len(tr.TraceSpans(lastTrace)) != 1 {
		t.Error("newest span evicted instead of oldest")
	}
	if got := len(tr.Traces(0)); got != 8 {
		t.Errorf("retained traces = %d, want 8", got)
	}

	reg := obs.NewRegistry()
	tr.Bind(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mp_spans_recorded_total 20", "mp_spans_dropped_total 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentChildrenUnderRace(t *testing.T) {
	tr := NewTracer(256)
	ctx, root := tr.Start(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, c := Start(ctx, "child")
			c.SetAttr("k", "v")
			root.AddEvent("spawned")
			_, g := Start(cctx, "grandchild")
			g.End()
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.TraceSpans(root.TraceID)
	if len(spans) != 33 {
		t.Fatalf("got %d spans, want 33", len(spans))
	}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Errorf("span %s escaped the trace", s.Name)
		}
	}
}

func TestTreeAndFlatten(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.Start(context.Background(), "selection")
	cctx, probe := Start(ctx, "probe")
	_, attempt := Start(cctx, "attempt")
	attempt.End()
	probe.End()
	root.End()

	roots := tr.Tree(root.TraceID)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	r := roots[0]
	if r.Name != "selection" || r.Depth != 0 {
		t.Errorf("root = %q depth %d", r.Name, r.Depth)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "probe" || r.Children[0].Depth != 1 {
		t.Fatalf("root children = %+v", r.Children)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].Depth != 2 {
		t.Fatalf("probe children wrong")
	}
	flat := Flatten(roots)
	if len(flat) != 3 || flat[0].Name != "selection" || flat[1].Name != "probe" || flat[2].Name != "attempt" {
		names := make([]string, len(flat))
		for i, n := range flat {
			names[i] = n.Name
		}
		t.Errorf("flatten order = %v", names)
	}
	if tr.Tree("feedfacefeedfacefeedfacefeedface") != nil {
		t.Error("unknown trace returned a tree")
	}
}

func TestOTLPShape(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.Start(context.Background(), "selection")
	root.SetAttr("query", "cancer")
	_, child := Start(ctx, "probe")
	child.AddEvent("breaker_rejected")
	child.EndErr(errors.New("timeout"))
	root.End()

	doc := tr.OTLP(root.TraceID, "metaprobe")
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID           string `json:"traceId"`
					SpanID            string `json:"spanId"`
					ParentSpanID      string `json:"parentSpanId"`
					Name              string `json:"name"`
					StartTimeUnixNano string `json:"startTimeUnixNano"`
					EndTimeUnixNano   string `json:"endTimeUnixNano"`
					Status            *struct {
						Code int `json:"code"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	spans := parsed.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("otlp spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "selection" || spans[0].ParentSpanID != "" {
		t.Errorf("otlp root = %+v", spans[0])
	}
	if spans[1].ParentSpanID != root.SpanID {
		t.Errorf("otlp child parent = %q", spans[1].ParentSpanID)
	}
	if spans[1].Status == nil || spans[1].Status.Code != 2 {
		t.Errorf("otlp child status = %+v", spans[1].Status)
	}
	if spans[0].StartTimeUnixNano == "" || spans[0].EndTimeUnixNano == "" {
		t.Error("otlp timestamps empty")
	}
}

func TestHandler(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.Start(context.Background(), "selection")
	_, c := Start(ctx, "probe")
	c.End()
	root.End()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/debug/spans")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), root.TraceID) {
		t.Errorf("list: code=%d body=%s", rec.Code, rec.Body.String())
	}
	rec = get("/debug/spans?trace=" + root.TraceID)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"probe"`) {
		t.Errorf("trace: code=%d body=%s", rec.Code, rec.Body.String())
	}
	rec = get("/debug/spans?trace=" + root.TraceID + "&format=otlp")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "resourceSpans") {
		t.Errorf("otlp: code=%d", rec.Code)
	}
	if rec := get("/debug/spans?trace=feedfacefeedfacefeedfacefeedface"); rec.Code != 404 {
		t.Errorf("unknown trace: code=%d, want 404", rec.Code)
	}
	// A malformed or non-positive limit is rejected, not ignored.
	for _, n := range []string{"bogus", "0", "-1", "1.5", "9999999999999999999999"} {
		rec := get("/debug/spans?n=" + n)
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "positive integer") {
			t.Errorf("?n=%s: code=%d body=%q, want 400 with an explanation", n, rec.Code, rec.Body.String())
		}
	}
}
