package metaprobe

import (
	"sync/atomic"
	"testing"
)

// setSinks swaps the observability sinks of a built metasearcher, so
// one trained instance can be benchmarked under several configurations.
func (m *Metasearcher) setSinks(reg *Metrics, spans *SpanTracer) {
	m.cfg.Metrics, m.cfg.Spans = reg, spans
	m.observed = m.cfg.observed()
	m.series = registerSelectionMetrics(reg, m.tb)
}

// sightLegs are the two ways a benchmark below walks its query list. The
// list is short, so on a frozen model every pass after the first is
// decided from the serving version's memo: "repeat" times that, the hit
// path. "first-sight" republishes the model — a new version, nothing
// remembered — at the start of every pass, so no iteration reads a
// decision an earlier one made and the engine's compute is what is timed;
// the republication (a table derived by sharing every row, 16 KiB of
// empty memo) is on the clock, once per pass. Neither number says
// anything about the other.
var sightLegs = []struct {
	name  string
	fresh bool
}{{"repeat", false}, {"first-sight", true}}

// nextQuery returns iteration i's query, republishing the model first
// when a fresh leg starts a pass.
func (m *Metasearcher) nextQuery(queries []string, i int, fresh bool) string {
	if fresh && i%len(queries) == 0 {
		m.host.Install(m.serving(), "bench")
	}
	return queries[i%len(queries)]
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
// enabling each sink costs on top, each on a remembered selection
// ("repeat") and on a computed one ("first-sight").
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
		for _, leg := range sightLegs {
			b.Run(cfg.name+"/"+leg.name, func(b *testing.B) {
				ms.setSinks(cfg.metrics, cfg.spans)
				defer ms.setSinks(nil, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ms.Select(ms.nextQuery(queries, i, leg.fresh), 2, Absolute); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
		for _, leg := range sightLegs {
			b.Run(name+"/"+leg.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ms.SelectWithCertainty(ms.nextQuery(queries, i, leg.fresh), 2, Absolute, 0.9, -1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	ms.setSinks(nil, nil)
}

// BenchmarkSelectParallel measures the probing selection path under
// concurrent callers (run it at several -cpu values): the read path
// against itself with the model frozen — remembered ("repeat") and
// computed ("first-sight") — and against the write side — every probe
// folded back by online refinement, which also switches the memo off —
// with it on, each with no sink and with Metrics.
func BenchmarkSelectParallel(b *testing.B) {
	ms, queries := buildTestMetasearcher(b)
	for _, mode := range []string{"repeat", "first-sight", "refining"} {
		refine, fresh := mode == "refining", mode == "first-sight"
		for _, metrics := range []bool{false, true} {
			name := mode
			if metrics {
				name += "/metrics"
			} else {
				name += "/disabled"
			}
			b.Run(name, func(b *testing.B) {
				ms.cfg.OnlineRefinement = refine
				if metrics {
					ms.setSinks(NewMetrics(), nil)
				}
				defer ms.setSinks(nil, nil)
				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						q := ms.nextQuery(queries, int(next.Add(1)), fresh)
						if _, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}
