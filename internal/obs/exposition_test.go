package obs_test

import (
	"strings"
	"testing"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops/opstest"
)

// TestHistogramExposesSummaryOnly: whatever a registry holds, its
// exposition is the 0.0.4 text format /metrics declares, and a histogram
// family is exactly its summary — p50, p90, p99, _sum and _count.
func TestHistogramExposesSummaryOnly(t *testing.T) {
	r := obs.NewRegistry()
	r.Help("probes_total", "Live probes issued.")
	r.Counter("probes_total", obs.Labels{"db": "PubMed"}).Add(3)
	r.Counter("probes_total", obs.Labels{"db": "a\"b\\c\nd"}).Inc()
	r.Gauge("up", nil).Set(1)
	r.CounterFunc("spans_total", nil, func() float64 { return 42 })
	for _, tier := range []string{"full", "rd_only"} {
		h := r.Histogram("request_seconds", obs.Labels{"tier": tier})
		for _, v := range []float64{0.0004, 0.003, 0.04, 2, 30} {
			h.Observe(v)
		}
	}
	r.Histogram("empty_seconds", nil)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	opstest.CheckExposition(t, out)
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "request_seconds") {
			name, _, _ := strings.Cut(line, " ")
			got = append(got, name)
		}
	}
	want := []string{
		`request_seconds{tier="full",quantile="0.5"}`,
		`request_seconds{tier="full",quantile="0.9"}`,
		`request_seconds{tier="full",quantile="0.99"}`,
		`request_seconds_sum{tier="full"}`,
		`request_seconds_count{tier="full"}`,
		`request_seconds{tier="rd_only",quantile="0.5"}`,
		`request_seconds{tier="rd_only",quantile="0.9"}`,
		`request_seconds{tier="rd_only",quantile="0.99"}`,
		`request_seconds_sum{tier="rd_only"}`,
		`request_seconds_count{tier="rd_only"}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("histogram family exposes\n%s\nwant exactly\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
