package span

import (
	"sort"
	"strconv"
	"time"

	"metaprobe/internal/obs"
)

// Bind exports the tracer's store counters to reg as
// mp_spans_recorded_total and mp_spans_dropped_total. A nil tracer or
// registry is fine.
func (t *Tracer) Bind(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.Help("mp_spans_recorded_total", "Finished spans stored by the span tracer.")
	reg.Help("mp_spans_dropped_total", "Finished spans evicted from the bounded span store.")
	reg.CounterFunc("mp_spans_recorded_total", nil, func() float64 { return float64(t.Recorded()) })
	reg.CounterFunc("mp_spans_dropped_total", nil, func() float64 { return float64(t.droppedSpans()) })
}

// Node is one span in a rendered trace tree, with timings relative to
// the trace root for waterfall display.
type Node struct {
	*Span
	OffsetMs   float64 `json:"offsetMs"`
	DurationMs float64 `json:"durationMs"`
	Depth      int     `json:"depth"`
	Children   []*Node `json:"children,omitempty"`
}

// Tree assembles the stored spans of traceID into a parent/child tree.
// Spans whose parent has been evicted from the store are promoted to
// extra roots so a partially-retained trace still renders. Returns nil
// for an unknown trace.
func (t *Tracer) Tree(traceID string) []*Node {
	spans := t.TraceSpans(traceID)
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].StartTime
	nodes := make(map[string]*Node, len(spans))
	for _, s := range spans {
		nodes[s.SpanID] = &Node{
			Span:       s,
			OffsetMs:   float64(s.StartTime.Sub(origin)) / float64(time.Millisecond),
			DurationMs: float64(s.EndTime.Sub(s.StartTime)) / float64(time.Millisecond),
		}
	}
	var roots []*Node
	for _, s := range spans { // keep start-time order within siblings
		n := nodes[s.SpanID]
		if p, ok := nodes[s.ParentID]; ok && s.ParentID != "" {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var setDepth func(n *Node, d int)
	setDepth = func(n *Node, d int) {
		n.Depth = d
		for _, c := range n.Children {
			setDepth(c, d+1)
		}
	}
	for _, r := range roots {
		setDepth(r, 0)
	}
	return roots
}

// Flatten walks a trace tree depth-first, returning the rows in
// waterfall order (each parent immediately followed by its children).
func Flatten(roots []*Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// otlp renders the stored spans of traceID in the OTLP/JSON resource
// span shape (resourceSpans → scopeSpans → spans), so a trace can be
// fed to any OTLP-compatible viewer. Attribute values are all string
// typed; timestamps are unix-nano strings per the OTLP JSON encoding.
func (t *Tracer) otlp(traceID, service string) map[string]any {
	spans := t.TraceSpans(traceID)
	out := make([]map[string]any, 0, len(spans))
	for _, s := range spans {
		o := map[string]any{
			"traceId":           s.TraceID,
			"spanId":            s.SpanID,
			"name":              s.Name,
			"kind":              1, // SPAN_KIND_INTERNAL
			"startTimeUnixNano": strconv.FormatInt(s.StartTime.UnixNano(), 10),
			"endTimeUnixNano":   strconv.FormatInt(s.EndTime.UnixNano(), 10),
		}
		if s.ParentID != "" {
			o["parentSpanId"] = s.ParentID
		}
		if len(s.Attrs) > 0 {
			o["attributes"] = otlpAttrs(s.Attrs)
		}
		if len(s.Events) > 0 {
			evs := make([]map[string]any, 0, len(s.Events))
			for _, e := range s.Events {
				ev := map[string]any{
					"timeUnixNano": strconv.FormatInt(e.Time.UnixNano(), 10),
					"name":         e.Name,
				}
				if len(e.Attrs) > 0 {
					ev["attributes"] = otlpAttrs(e.Attrs)
				}
				evs = append(evs, ev)
			}
			o["events"] = evs
		}
		if s.Error != "" {
			o["status"] = map[string]any{"code": 2, "message": s.Error} // STATUS_CODE_ERROR
		}
		out = append(out, o)
	}
	return map[string]any{
		"resourceSpans": []map[string]any{{
			"resource": map[string]any{
				"attributes": otlpAttrs(map[string]string{"service.name": service}),
			},
			"scopeSpans": []map[string]any{{
				"scope": map[string]any{"name": "metaprobe/internal/obs/span"},
				"spans": out,
			}},
		}},
	}
}

// otlpAttrs renders a string map as the OTLP keyValue list, sorted by
// key for stable output.
func otlpAttrs(attrs map[string]string) []map[string]any {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]map[string]any, 0, len(keys))
	for _, k := range keys {
		out = append(out, map[string]any{
			"key":   k,
			"value": map[string]any{"stringValue": attrs[k]},
		})
	}
	return out
}
