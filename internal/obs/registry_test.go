package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", Labels{"db": "a"})
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) resolves to the same metric.
	if r.Counter("requests_total", Labels{"db": "a"}) != c {
		t.Error("counter lookup not idempotent")
	}
	// Different labels are a different series.
	if r.Counter("requests_total", Labels{"db": "b"}) == c {
		t.Error("label sets must give distinct series")
	}

	g := r.Gauge("queue_depth", nil)
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}

func TestRegistryNilIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x", nil).Inc()
	r.Gauge("y", nil).Set(1)
	r.Histogram("z", nil).Observe(1)
	r.CounterFunc("w", nil, func() float64 { return 1 })
	r.Help("x", "help")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition: %q err=%v", sb.String(), err)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", nil)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Help("probes_total", "Live probes issued.")
	r.Counter("probes_total", Labels{"db": "PubMed"}).Add(3)
	r.Counter("probes_total", Labels{"db": "CNN"}).Inc()
	r.Gauge("up", nil).Set(1)
	h := r.Histogram("search_latency_seconds", Labels{"db": "PubMed"})
	for i := 0; i < 100; i++ {
		h.Observe(0.010)
	}
	r.CounterFunc("cache_hits_total", Labels{"db": "PubMed"}, func() float64 { return 42 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP probes_total Live probes issued.",
		"# TYPE probes_total counter",
		`probes_total{db="PubMed"} 3`,
		`probes_total{db="CNN"} 1`,
		"# TYPE up gauge",
		"up 1",
		"# TYPE search_latency_seconds summary",
		`search_latency_seconds{db="PubMed",quantile="0.5"} 0.01`,
		`search_latency_seconds{db="PubMed",quantile="0.99"} 0.01`,
		`search_latency_seconds_sum{db="PubMed"} `,
		`search_latency_seconds_count{db="PubMed"} 100`,
		`cache_hits_total{db="PubMed"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted, so the output is deterministic.
	if strings.Index(out, "cache_hits_total") > strings.Index(out, "probes_total") {
		t.Error("families not sorted by name")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", Labels{"q": "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `m{q="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped label: got %q, want to contain %q", sb.String(), want)
	}
}

func TestLabelEscapingPerCharacter(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `m{q="plain"} 1`},
		{`a"b`, `m{q="a\"b"} 1`},
		{`a\b`, `m{q="a\\b"} 1`},
		{"a\nb", `m{q="a\nb"} 1`},
		{`\`, `m{q="\\"} 1`},
		{``, `m{q=""} 1`},
	}
	for _, tc := range cases {
		r := NewRegistry()
		r.Counter("m", Labels{"q": tc.in}).Inc()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), tc.want) {
			t.Errorf("label %q: got %q, want to contain %q", tc.in, sb.String(), tc.want)
		}
	}
}

func TestLabelOrderingDeterministic(t *testing.T) {
	// Multiple labels render sorted by key regardless of map iteration
	// order, so series identity is stable across scrapes.
	r := NewRegistry()
	r.Counter("m", Labels{"zeta": "1", "alpha": "2", "mid": "3"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `m{alpha="2",mid="3",zeta="1"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("got %q, want to contain %q", sb.String(), want)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := Labels{"db": string(rune('a' + w%3))}
			for i := 0; i < 500; i++ {
				r.Counter("c", lbl).Inc()
				r.Histogram("h", lbl).Observe(0.001)
				r.Gauge("g", lbl).Set(float64(i))
			}
		}(w)
	}
	// Exposition runs concurrently with writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	var total int64
	for _, db := range []string{"a", "b", "c"} {
		total += r.Counter("c", Labels{"db": db}).Value()
	}
	if total != 8*500 {
		t.Errorf("total counter = %d, want %d", total, 8*500)
	}
}
