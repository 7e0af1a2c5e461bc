// Package obs is the zero-dependency observability layer of metaprobe:
// a concurrency-safe metrics registry (counters, gauges, latency
// histograms with quantile snapshots), Prometheus text-format
// exposition, and structured selection tracing.
//
// The paper's central concern is probing cost — every live probe
// against a Hidden-Web source is a remote round trip — so a production
// metasearcher must be able to see its probe counts, certainty
// trajectories, per-database latencies and error rates. This package
// makes all of that observable without adding a single third-party
// dependency: go.mod stays stdlib-only.
//
// Everything is nil-tolerant by design: a nil *Registry and a nil
// Tracer are valid "disabled" values, and the instrumented call sites
// guard with a single pointer comparison, so observability costs
// nothing when switched off.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimensions to a metric ({"db": "PubMed"}). Metrics
// with the same name but different label values are distinct series of
// one family.
type Labels map[string]string

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// metricKind discriminates the families a registry holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one (name, labels) time series.
type series struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	// fn, when set, supplies the value at exposition time (used to
	// surface externally owned state such as a tracer's span counts).
	fn   func() float64
	hist *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	series map[string]*series // key: canonical label string
}

// Registry is a concurrency-safe collection of metric families. The
// zero value is not usable; call NewRegistry. All accessor methods are
// idempotent: asking for the same (name, labels) returns the same
// metric, so call sites may resolve handles eagerly (hot paths) or per
// use (cold paths).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Help sets the help text emitted for a metric family.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	} else {
		r.families[name] = &family{name: name, help: help, series: make(map[string]*series)}
	}
}

// labelKey canonicalizes labels into a deterministic map key (and the
// exposition order): sorted by label name.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(escapeLabel(labels[k]))
	}
	return b.String()
}

// lookup finds or creates the series for (name, labels), checking the
// kind stays consistent.
func (r *Registry) lookup(name string, labels Labels, kind metricKind) *series {
	key := labelKey(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == kind {
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if len(f.series) == 0 {
		// Only Help was registered so far; adopt the kind.
		f.kind = kind
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered twice with different types", name))
	}
	s, ok := f.series[key]
	if !ok {
		// Copy the labels so later caller mutation cannot corrupt the
		// exposition.
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = NewHistogram()
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. Safe to call from any goroutine; returns a shared no-op on a
// nil registry.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nopCounter
	}
	return r.lookup(name, labels, kindCounter).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nopGauge
	}
	return r.lookup(name, labels, kindGauge).gauge
}

// Histogram returns the histogram for (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	if r == nil {
		return nopHistogram
	}
	return r.lookup(name, labels, kindHistogram).hist
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for counts owned elsewhere (e.g. a span
// tracer's recorded and dropped spans). Re-registering the same (name,
// labels) replaces the function.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.lookup(name, labels, kindCounter)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge series computed by fn at exposition time.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.lookup(name, labels, kindGauge)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Shared no-op metrics returned by a nil registry, so call sites can
// resolve handles unconditionally and skip nil checks on use. Writes
// land in these dead metrics.
var (
	nopCounter   = &Counter{}
	nopGauge     = &Gauge{}
	nopHistogram = NewHistogram()
)

// quantiles exposed for histogram families, in exposition order.
var expoQuantiles = []float64{0.5, 0.9, 0.99}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as summaries with p50/p90/p99 quantile samples
// plus _sum and _count. Families and series are emitted in sorted
// order so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		r.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, len(keys))
		fns := make([]func() float64, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
			fns[i] = f.series[k].fn
		}
		help, kind, name := f.help, f.kind, f.name
		r.mu.RUnlock()
		if len(sers) == 0 {
			continue
		}
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typeString(kind)); err != nil {
			return err
		}
		for i, s := range sers {
			if err := writeSeries(w, name, s, fns[i], kind); err != nil {
				return err
			}
		}
	}
	return nil
}

// typeString maps a kind to its exposition TYPE token.
func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// writeSeries renders one series.
func writeSeries(w io.Writer, name string, s *series, fn func() float64, kind metricKind) error {
	switch kind {
	case kindCounter:
		v := float64(s.counter.Value())
		if fn != nil {
			v = fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %v\n", name, formatLabels(s.labels, "", 0), v)
		return err
	case kindGauge:
		v := s.gauge.Value()
		if fn != nil {
			v = fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %v\n", name, formatLabels(s.labels, "", 0), v)
		return err
	default:
		for _, q := range expoQuantiles {
			if _, err := fmt.Fprintf(w, "%s%s %v\n", name, formatLabels(s.labels, "quantile", q), s.hist.Quantile(q)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %v\n", name, formatLabels(s.labels, "", 0), s.hist.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(s.labels, "", 0), s.hist.Count())
		return err
	}
}

// sortedLabelKeys returns the label names in exposition order.
func sortedLabelKeys(labels Labels) []string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatLabels renders {k="v",...}; quantileKey, when non-empty, adds
// the summary quantile label.
func formatLabels(labels Labels, quantileKey string, quantile float64) string {
	if len(labels) == 0 && quantileKey == "" {
		return ""
	}
	keys := sortedLabelKeys(labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(labels[k]))
	}
	if quantileKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%v\"", quantileKey, quantile)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes backslash, quote and newline per the exposition
// format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}
