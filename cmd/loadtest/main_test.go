package main

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/ops/opstest"
)

func TestRunLoadTest(t *testing.T) {
	cfg := loadConfig{
		scale:       0.005,
		seed:        7,
		trainN:      60,
		numQueries:  30,
		concurrency: 2,
		latency:     time.Millisecond,
		k:           1,
		t:           0.8,
	}
	rep, err := runLoadTest(cfg, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.queries != 30 {
		t.Errorf("queries = %d", rep.queries)
	}
	if rep.p50 <= 0 || rep.p90 < rep.p50 || rep.p99 < rep.p90 {
		t.Errorf("percentiles out of order: %v %v %v", rep.p50, rep.p90, rep.p99)
	}
	if rep.avgProbes < 0 || rep.avgProbes > 20 {
		t.Errorf("avg probes %v out of range", rep.avgProbes)
	}
	if rep.reachedFrac <= 0 || rep.reachedFrac > 1 {
		t.Errorf("reached fraction %v out of range", rep.reachedFrac)
	}
	// With 1ms injected latency, a query probing at least once must
	// take at least 1ms at p99.
	if rep.avgProbes > 0.5 && rep.p99 < time.Millisecond {
		t.Errorf("p99 %v below injected latency despite %v avg probes", rep.p99, rep.avgProbes)
	}
	// The run carries a metrics snapshot with the shared histogram the
	// percentiles came from plus the per-database instrumentation.
	if rep.avgCorA < 0 || rep.avgCorA > 1 {
		t.Errorf("avg CorA %v out of range", rep.avgCorA)
	}
	if rep.calibration.Samples != int64(rep.queries) {
		t.Errorf("calibration samples = %d, want one per query (%d)", rep.calibration.Samples, rep.queries)
	}
	for _, want := range []string{
		"loadtest_query_latency_seconds_count 30",
		"metaprobe_db_search_latency_seconds",
		"metaprobe_selections_total",
		"mp_calibration_samples_total 30",
		"mp_calibration_brier_score",
	} {
		if !strings.Contains(rep.metrics, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	// The -serve surface is the shared ops tree over the run's sinks:
	// without -trace there is no span store, so no /debug/spans, and no
	// profiles without a captor.
	opstest.CheckRoutes(t, newServeMux(rep, nil), ops.Sinks{Metrics: rep.reg, SLO: rep.sloT})
}
