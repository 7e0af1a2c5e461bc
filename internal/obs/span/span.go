// Package span is a zero-dependency hierarchical span tracer for the
// metaprobe request path. It deliberately mirrors the shape of
// OpenTelemetry tracing — W3C-style 16-byte trace IDs and 8-byte span
// IDs, parent/child links carried through context.Context, events and
// string attributes on each span — without importing anything beyond
// the standard library. Finished spans land in a bounded in-memory
// ring store; overflow evicts the oldest span and increments a dropped
// counter. The store can render a whole trace as a tree or export it
// as OTLP-compatible JSON, so traces can be pasted into any OTLP
// viewer.
//
// Everything is nil-tolerant: a nil *Tracer and a nil *Span no-op on
// every method, so instrumented code needs no "is tracing on?" guards.
// Downstream packages create child spans with the package-level
// Start(ctx, name): it only records when an ancestor span is already
// in ctx, which keeps the tracer handle out of every config struct.
package span

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxEventsPerSpan is the event count past which AddEvent drops, so a
// hot loop annotating one span cannot grow it without limit. Overflow
// is counted and surfaced as a "dropped_events" attribute at End.
// AddRecord is exempt.
const maxEventsPerSpan = 64

// DefaultCapacity is the span-store size used when NewTracer is given
// a non-positive capacity.
const DefaultCapacity = 8192

// Event is a timestamped point annotation on a span.
type Event struct {
	Time  time.Time         `json:"time"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. Fields are exported for JSON
// rendering; mutate only through the methods, which are safe for
// concurrent use (a span's context may travel to goroutines other than
// the one that opened it, such as a selection's background probes).
type Span struct {
	TraceID   string            `json:"traceId"`
	SpanID    string            `json:"spanId"`
	ParentID  string            `json:"parentSpanId,omitempty"`
	Name      string            `json:"name"`
	StartTime time.Time         `json:"start"`
	EndTime   time.Time         `json:"end"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Events    []Event           `json:"events,omitempty"`
	Error     string            `json:"error,omitempty"`

	tracer        *Tracer
	mu            sync.Mutex
	ended         bool
	droppedEvents int
}

// Tracer creates spans and stores the finished ones in a bounded ring.
type Tracer struct {
	mu       sync.Mutex
	ring     []*Span
	next     int
	recorded atomic.Int64
	dropped  atomic.Int64
}

// NewTracer returns a tracer retaining the most recent capacity
// finished spans (DefaultCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]*Span, 0, capacity)}
}

type ctxKey struct{}

// FromContext returns the innermost span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a span named name. If ctx already carries a span, the
// new span is its child and shares the trace ID; otherwise it is a new
// root with a fresh trace ID. The returned context carries the new
// span for further nesting. A nil tracer returns ctx unchanged and a
// nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		SpanID:    newSpanID(),
		Name:      name,
		StartTime: time.Now(),
		tracer:    t,
	}
	if parent := FromContext(ctx); parent != nil {
		s.TraceID = parent.TraceID
		s.ParentID = parent.SpanID
	} else {
		s.TraceID = newTraceID()
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Start opens a child of the span carried by ctx, using that span's
// tracer. When ctx carries no span (tracing disabled upstream) it
// returns ctx unchanged and a nil span, so call sites never branch.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.Start(ctx, name)
}

// newTraceID returns 16 random bytes in lowercase hex (32 chars).
func newTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

// newSpanID returns 8 random bytes in lowercase hex (16 chars).
func newSpanID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// SetAttr sets a string attribute. No-op on a nil or ended span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
}

// AddEvent appends a timestamped event; kv is alternating key/value
// pairs for its attributes. Events past maxEventsPerSpan are dropped
// and counted.
func (s *Span) AddEvent(name string, kv ...string) { s.addEvent(true, name, kv) }

// AddRecord appends an event that is part of the span's result rather
// than an annotation made along the way: maxEventsPerSpan does not
// apply, so however many annotations came first, the record survives.
// The caller bounds how many it writes — the selection root writes one "step" per folded probe (at
// most one per database) and one "stage" per pipeline stage.
func (s *Span) AddRecord(name string, kv ...string) { s.addEvent(false, name, kv) }

func (s *Span) addEvent(capped bool, name string, kv []string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if capped && len(s.Events) >= maxEventsPerSpan {
		s.droppedEvents++
		return
	}
	ev := Event{Time: time.Now(), Name: name}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[kv[i]] = kv[i+1]
		}
	}
	s.Events = append(s.Events, ev)
}

// EndErr ends the span, recording err (if any) on it first.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.mu.Lock()
		if !s.ended {
			s.Error = err.Error()
		}
		s.mu.Unlock()
	}
	s.End()
}

// End closes the span and hands it to the tracer's store. Calling it
// more than once is safe; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.EndTime = time.Now()
	if s.droppedEvents > 0 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]string, 1)
		}
		s.Attrs["dropped_events"] = fmt.Sprint(s.droppedEvents)
	}
	s.mu.Unlock()
	s.tracer.record(s)
}

// Duration returns the span's elapsed time once ended, 0 otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.EndTime.Sub(s.StartTime)
}

// Trace returns the span's trace ID ("" on nil).
func (s *Span) Trace() string {
	if s == nil {
		return ""
	}
	return s.TraceID
}

// record stores a finished span, evicting the oldest on overflow.
func (t *Tracer) record(s *Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % cap(t.ring)
		t.dropped.Add(1)
	}
	t.mu.Unlock()
	t.recorded.Add(1)
}

// Recorded returns the number of spans ever stored.
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// Dropped returns the number of spans evicted due to store overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// snapshot copies the stored spans, oldest first.
func (t *Tracer) snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// TraceSpans returns every stored span of the given trace, sorted by
// start time. Returns nil when the trace is unknown (or evicted).
func (t *Tracer) TraceSpans(traceID string) []*Span {
	if t == nil || traceID == "" {
		return nil
	}
	var out []*Span
	for _, s := range t.snapshot() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartTime.Before(out[j].StartTime) })
	return out
}

// TraceSummary describes one trace held in the store.
type TraceSummary struct {
	TraceID    string        `json:"traceId"`
	Root       string        `json:"root"`
	Start      time.Time     `json:"start"`
	Duration   time.Duration `json:"-"`
	DurationMs float64       `json:"durationMs"`
	Spans      int           `json:"spans"`
	Error      string        `json:"error,omitempty"`
}

// Traces summarises the most recent n traces in the store, newest
// first. n <= 0 means all.
func (t *Tracer) Traces(n int) []TraceSummary {
	if t == nil {
		return nil
	}
	byID := make(map[string]*TraceSummary)
	var order []string
	for _, s := range t.snapshot() {
		sum, ok := byID[s.TraceID]
		if !ok {
			sum = &TraceSummary{TraceID: s.TraceID, Start: s.StartTime}
			byID[s.TraceID] = sum
			order = append(order, s.TraceID)
		}
		sum.Spans++
		if s.StartTime.Before(sum.Start) {
			sum.Start = s.StartTime
		}
		if s.ParentID == "" {
			sum.Root = s.Name
			sum.Duration = s.EndTime.Sub(s.StartTime)
			sum.DurationMs = float64(sum.Duration) / float64(time.Millisecond)
			sum.Error = s.Error
		}
	}
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		out = append(out, *byID[order[i]])
		if n > 0 && len(out) >= n {
			break
		}
	}
	return out
}
