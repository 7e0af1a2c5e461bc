package opstest

import (
	"fmt"
	"testing"
)

// errorLog is a testing.TB that keeps what a check reports instead of
// failing the test that runs it.
type errorLog struct {
	testing.TB
	errs []string
}

func (l *errorLog) Helper() {}

func (l *errorLog) Errorf(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// TestCheckExposition: the parser passes what the registry writes and
// refuses each way a body can leave the 0.0.4 text format — among them
// the OpenMetrics exemplar suffix and a _bucket ladder under a summary.
func TestCheckExposition(t *testing.T) {
	const summary = "# HELP lat_seconds Latency.\n# TYPE lat_seconds summary\n" +
		`lat_seconds{tier="full",quantile="0.5"} 0.0012` + "\n" +
		`lat_seconds{tier="full",quantile="0.99"} 0.031` + "\n" +
		`lat_seconds_sum{tier="full"} 0.5` + "\n" +
		`lat_seconds_count{tier="full"} 40` + "\n"
	const counter = "# TYPE probes_total counter\n" + `probes_total{db="a\"b\\c\nd",x="y",} 3` + "\n"
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"summary and counter", summary + counter + "# TYPE up gauge\nup NaN\n", true},
		{"exemplar suffix", summary + `lat_seconds_bucket{tier="full",le="0.05"} 37 # {trace_id="4bf92f35"} 0.0123 1719400000.123` + "\n", false},
		{"bucket under a summary", summary + `lat_seconds_bucket{tier="full",le="+Inf"} 40` + "\n", false},
		{"quantile on a counter", counter + `probes_total{quantile="0.5"} 1` + "\n", false},
		{"sum of a counter", counter + "probes_total_sum 3\n", false},
		{"timestamp", "# TYPE up gauge\nup 1 1719400000\n", false},
		{"no TYPE above", "up 1\n", false},
		{"value not a number", "# TYPE up gauge\nup one\n", false},
		{"unquoted label", "# TYPE up gauge\nup{a=b} 1\n", false},
	} {
		log := &errorLog{TB: t}
		CheckExposition(log, c.body)
		if ok := len(log.errs) == 0; ok != c.ok {
			t.Errorf("%s: passed %v, want %v (%q)", c.name, ok, c.ok, log.errs)
		}
	}
}
