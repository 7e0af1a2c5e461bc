package obs

import (
	"strings"
	"testing"
)

func TestDriftConfigDefaults(t *testing.T) {
	cfg := DriftConfig{}.withDefaults()
	if cfg.WindowSize != 64 || cfg.MinSamples != 32 || cfg.Interval != 16 || cfg.Alpha != 0.005 {
		t.Errorf("defaults = %+v", cfg)
	}
	// MinSamples can never exceed the window that holds the samples.
	cfg = DriftConfig{WindowSize: 10, MinSamples: 50}.withDefaults()
	if cfg.MinSamples != 10 {
		t.Errorf("MinSamples = %d, want clamped to WindowSize 10", cfg.MinSamples)
	}
}

func TestDriftNilDetectorIsNoop(t *testing.T) {
	var d *DriftDetector
	d.SetReference("db", "1-term/low", []float64{1, 2, 3})
	d.Observe("db", "1-term/low", 1.5)
	d.SetMetrics(NewRegistry())
	if s := d.Snapshot(); len(s) != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
	if a := d.Alerts(); a != 0 {
		t.Errorf("nil alerts = %d", a)
	}
}

func TestDriftObserveWithoutReferenceIsDropped(t *testing.T) {
	d := NewDriftDetector(DriftConfig{WindowSize: 4, MinSamples: 4, Interval: 1})
	for i := 0; i < 20; i++ {
		d.Observe("db", "1-term/low", float64(i))
	}
	if s := d.Snapshot(); len(s) != 0 {
		t.Errorf("observations without a reference tracked: %+v", s)
	}
}

func TestDriftEmptyReferenceIgnored(t *testing.T) {
	d := NewDriftDetector(DriftConfig{WindowSize: 4, MinSamples: 4, Interval: 1})
	d.SetReference("db", "1-term/low", nil)
	d.Observe("db", "1-term/low", 1)
	if s := d.Snapshot(); len(s) != 0 {
		t.Errorf("empty reference created a window: %+v", s)
	}
}

// repeat builds a sample with each value of vals repeated n times —
// the quantized-support shape SetReference receives in production.
func repeat(vals []float64, n int) []float64 {
	out := make([]float64, 0, len(vals)*n)
	for _, v := range vals {
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

func TestDriftTestCadenceAndNoFalseAlarm(t *testing.T) {
	var alerts []DriftAlert
	d := NewDriftDetector(DriftConfig{WindowSize: 8, MinSamples: 8, Interval: 4, Alpha: 0.01})
	ref := repeat([]float64{0.5, 1.5, 2.5}, 20)
	d.SetReference("db", "1-term/low", ref)

	// Fresh samples drawn from the same discrete support: no drift.
	support := []float64{0.5, 1.5, 2.5}
	for i := 0; i < 24; i++ {
		if a, ok := d.Observe("db", "1-term/low", support[i%3]); ok {
			alerts = append(alerts, a)
		}
	}
	snap := d.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	s := snap[0]
	if s.DB != "db" || s.QueryType != "1-term/low" {
		t.Errorf("status key = %s/%s", s.DB, s.QueryType)
	}
	// Window fills at observation 8; tests run every Interval=4 after
	// that: observations 8, 12, 16, 20, 24 → 5 tests.
	if s.Tests != 5 {
		t.Errorf("tests = %d, want 5 (window fill + every 4th observation)", s.Tests)
	}
	if s.Alerts != 0 || len(alerts) != 0 {
		t.Errorf("same-distribution samples alerted: status=%+v returned=%+v", s, alerts)
	}
	if s.LastPValue <= 0.01 {
		t.Errorf("same-distribution p-value = %v, suspiciously low", s.LastPValue)
	}
}

func TestDriftAlertOnShiftedDistribution(t *testing.T) {
	var alerts []DriftAlert
	reg := NewRegistry()
	d := NewDriftDetector(DriftConfig{WindowSize: 16, MinSamples: 16, Interval: 4, Alpha: 0.01})
	d.SetMetrics(reg)
	d.SetReference("db", "2-term/low", repeat([]float64{0.5, 1.5}, 30))

	// Every fresh error lands far above the reference support.
	for i := 0; i < 16; i++ {
		if a, ok := d.Observe("db", "2-term/low", 6.5); ok {
			alerts = append(alerts, a)
		}
	}
	if len(alerts) == 0 {
		t.Fatal("fully shifted window raised no alert")
	}
	a := alerts[0]
	if a.DB != "db" || a.QueryType != "2-term/low" {
		t.Errorf("alert key = %s/%s", a.DB, a.QueryType)
	}
	if a.PValue >= 0.01 {
		t.Errorf("alert p-value = %v, want < alpha", a.PValue)
	}
	if a.Statistic <= 0.5 {
		t.Errorf("alert KS statistic = %v, want large for disjoint supports", a.Statistic)
	}
	if a.Samples != 16 {
		t.Errorf("alert samples = %d, want window size", a.Samples)
	}
	if d.Alerts() == 0 {
		t.Error("Alerts() total is zero after an alert")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mp_ed_drift_alerts_total{db="db"}`,
		"mp_ed_drift_tests_total",
		`mp_ed_drift_statistic{db="db",type="2-term/low"}`,
		`mp_ed_drift_pvalue{db="db",type="2-term/low"}`,
		"# HELP mp_ed_drift_alerts_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDriftSetReferenceResetsWindow(t *testing.T) {
	var alerts []DriftAlert
	d := NewDriftDetector(DriftConfig{WindowSize: 8, MinSamples: 8, Interval: 2, Alpha: 0.01})
	d.SetReference("db", "1-term/low", repeat([]float64{0.5}, 20))
	for i := 0; i < 8; i++ {
		if a, ok := d.Observe("db", "1-term/low", 9.5); ok {
			alerts = append(alerts, a)
		}
	}
	if len(alerts) == 0 {
		t.Fatal("shifted window raised no alert before retrain")
	}

	// Retraining installs a reference matching the new regime; the stale
	// window must be discarded, so no further alert fires from old data.
	alerts = nil
	d.SetReference("db", "1-term/low", repeat([]float64{9.5}, 20))
	snap := d.Snapshot()
	if len(snap) != 1 || snap[0].Samples != 0 {
		t.Fatalf("window not reset by SetReference: %+v", snap)
	}
	for i := 0; i < 8; i++ {
		if a, ok := d.Observe("db", "1-term/low", 9.5); ok {
			alerts = append(alerts, a)
		}
	}
	if len(alerts) != 0 {
		t.Errorf("post-retrain samples matching the new reference alerted: %+v", alerts)
	}
}

func TestDriftSnapshotSorted(t *testing.T) {
	d := NewDriftDetector(DriftConfig{})
	ref := repeat([]float64{1}, 5)
	d.SetReference("zeta", "1-term/low", ref)
	d.SetReference("alpha", "2-term/low", ref)
	d.SetReference("alpha", "1-term/low", ref)
	d.Observe("zeta", "1-term/low", 1)
	d.Observe("alpha", "2-term/low", 1)
	d.Observe("alpha", "1-term/low", 1)
	snap := d.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i := 1; i < len(snap); i++ {
		prev, cur := snap[i-1], snap[i]
		if prev.DB > cur.DB || (prev.DB == cur.DB && prev.QueryType > cur.QueryType) {
			t.Errorf("snapshot not sorted: %+v before %+v", prev, cur)
		}
	}
}
