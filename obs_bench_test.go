package metaprobe

import "testing"

// setSinks swaps the observability sinks of a built metasearcher, so
// one trained instance can be benchmarked under several configurations.
func (m *Metasearcher) setSinks(reg *Metrics, spans *SpanTracer) {
	m.cfg.Metrics, m.cfg.Spans = reg, spans
	m.observed = m.cfg.observed()
}

// BenchmarkSelect measures the observability layer's cost on the hot
// selection path. The acceptance bar is that the disabled path (the
// default config with no sink) stays within 2% of a build with no
// instrumentation at all — it tests the one "any sink configured" flag
// twice per Select — so compare the sub-benchmarks:
//
//	go test -bench BenchmarkSelect -benchtime 2s .
//
// "disabled" is the nil path; "metrics", "spans" and "full" show what
// enabling each sink costs on top.
func BenchmarkSelect(b *testing.B) {
	ms, queries := buildTestMetasearcher(b)
	configs := []struct {
		name    string
		metrics *Metrics
		spans   *SpanTracer
	}{
		{"disabled", nil, nil},
		{"metrics", NewMetrics(), nil},
		{"spans", nil, NewSpanTracer(0)},
		{"full", NewMetrics(), NewSpanTracer(0)},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			ms.setSinks(cfg.metrics, cfg.spans)
			defer ms.setSinks(nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ms.Select(queries[i%len(queries)], 2, Absolute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectWithCertainty covers the probing path, where the
// per-step span events are written.
func BenchmarkSelectWithCertainty(b *testing.B) {
	ms, queries := buildTestMetasearcher(b)
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "full"
			ms.setSinks(NewMetrics(), NewSpanTracer(0))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ms.SelectWithCertainty(queries[i%len(queries)], 2, Absolute, 0.9, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	ms.setSinks(nil, nil)
}
