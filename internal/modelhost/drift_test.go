package modelhost

import (
	"slices"
	"strings"
	"testing"

	"metaprobe/internal/core"
	"metaprobe/internal/obs"
	"metaprobe/internal/refresh"
	"metaprobe/internal/stats"
)

// repeat builds a sample with each value of vals repeated n times — the
// quantized-support shape ED.ReferenceSample produces.
func repeat(vals []float64, n int) []float64 {
	out := make([]float64, 0, len(vals)*n)
	for _, v := range vals {
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

// track gives database db's key a window over the reference ref, as
// anchoring on an ED with that reference sample would.
func track(h *Host, db int, key core.TypeKey, ref []float64) {
	h.drift[driftKey{db, key}] = &window{ref: ref}
}

var lowOne = core.TypeKey{Terms: 1, Band: core.BandLow}

// TestDriftTestCadenceAndNoFalseAlarm: the first test runs at a key's
// 32nd observation and one more at every 16th after it; fresh samples
// drawn from the reference's own support never alert.
func TestDriftTestCadenceAndNoFalseAlarm(t *testing.T) {
	h := New([]string{"db"}, true, nil)
	track(h, 0, lowOne, repeat([]float64{0.5, 1.5, 2.5}, 20))
	support := []float64{0.5, 1.5, 2.5}
	var tested []int
	for n := 1; n <= 200; n++ {
		before := h.drift[driftKey{0, lowOne}].tests
		if _, ok := h.observeDrift(0, lowOne, support[n%3]); ok {
			t.Fatalf("same-support observation %d alerted", n)
		}
		if h.drift[driftKey{0, lowOne}].tests != before {
			tested = append(tested, n)
		}
	}
	want := []int{32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192}
	if !slices.Equal(tested, want) {
		t.Errorf("tests ran at observations %v, want %v", tested, want)
	}
	st := h.DriftStatuses()
	if len(st) != 1 || st[0].Tests != int64(len(want)) || st[0].Alerts != 0 || st[0].LastPValue <= driftAlpha {
		t.Errorf("statuses = %+v", st)
	}
}

// TestDriftWindowKeepsLast64: the window holds the last 64 observations,
// first in first out, and every test's statistic and p-value are
// stats.KolmogorovSmirnov of exactly those against the reference, bit
// for bit.
func TestDriftWindowKeepsLast64(t *testing.T) {
	h := New([]string{"db"}, true, nil)
	ref := repeat([]float64{-0.5, 0.05, 0.5, 2}, 16)
	track(h, 0, lowOne, ref)
	var seen []float64
	for n := 1; n <= 300; n++ {
		v := float64((n*37)%101)/25 - 1 // distinct within any 64 in a row
		seen = append(seen, v)
		h.observeDrift(0, lowOne, v)
		st := h.DriftStatuses()[0]
		last := seen[max(0, len(seen)-driftWindow):]
		if st.Samples != len(last) {
			t.Fatalf("after %d observations the window holds %d", n, st.Samples)
		}
		if n < driftMinSamples || (n-driftMinSamples)%driftInterval != 0 {
			continue
		}
		res, err := stats.KolmogorovSmirnov(last, ref)
		if err != nil {
			t.Fatal(err)
		}
		if st.LastStatistic != res.Statistic || st.LastPValue != res.PValue {
			t.Fatalf("test at observation %d: D %v, p %v; KS over the last %d gives %v, %v",
				n, st.LastStatistic, st.LastPValue, len(last), res.Statistic, res.PValue)
		}
	}
}

// TestDriftAlertOnShiftedDistribution: a window far from its reference
// alerts at its first test with the host's own key, and the test's
// result reaches the mp_ed_drift_* series under their names, labels and
// help.
func TestDriftAlertOnShiftedDistribution(t *testing.T) {
	reg := obs.NewRegistry()
	h := New([]string{"other", "db"}, true, reg)
	key := core.TypeKey{Terms: 2, Band: core.BandLow}
	track(h, 1, key, repeat([]float64{0.5, 1.5}, 30))
	var alerts []refresh.Alert
	for n := 1; n <= driftMinSamples; n++ {
		if a, ok := h.observeDrift(1, key, 6.5); ok {
			alerts = append(alerts, a)
		}
	}
	if want := (refresh.Alert{DB: "db", DBIdx: 1, Key: key}); len(alerts) != 1 || alerts[0] != want {
		t.Fatalf("alerts = %+v, want one %+v", alerts, want)
	}
	st := h.DriftStatuses()
	if len(st) != 1 || st[0].DB != "db" || st[0].QueryType != "2-term/low" || st[0].Alerts != 1 ||
		st[0].LastStatistic <= 0.5 || st[0].LastPValue >= driftAlpha {
		t.Errorf("statuses = %+v", st)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mp_ed_drift_alerts_total{db="db"} 1`,
		"mp_ed_drift_tests_total 1",
		`mp_ed_drift_statistic{db="db",type="2-term/low"}`,
		`mp_ed_drift_pvalue{db="db",type="2-term/low"}`,
		"# HELP mp_ed_drift_alerts_total Drift tests that rejected the trained error distribution, per database.",
		"# HELP mp_ed_drift_tests_total KS drift tests run against trained error distributions.",
		"# HELP mp_ed_drift_statistic Latest KS distance between fresh probe errors and the trained ED.",
		"# HELP mp_ed_drift_pvalue Latest KS p-value of fresh probe errors against the trained ED.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// observeUntracked feeds 100 far-off observations to database 0's lowOne
// key and fails if any alerts, makes a status or runs a test.
func observeUntracked(t *testing.T, h *Host, reg *obs.Registry) {
	t.Helper()
	for n := 0; n < 100; n++ {
		if _, ok := h.observeDrift(0, lowOne, 9.5); ok {
			t.Fatal("an untracked key alerted")
		}
	}
	if st := h.DriftStatuses(); len(st) != 0 {
		t.Errorf("untracked observations made statuses: %+v", st)
	}
	if n := reg.Counter("mp_ed_drift_tests_total", nil).Value(); n != 0 {
		t.Errorf("untracked observations ran %d tests", n)
	}
}

// TestDriftObserveWithoutReferenceIsDropped: observations of a key that
// was never anchored are dropped.
func TestDriftObserveWithoutReferenceIsDropped(t *testing.T) {
	reg := obs.NewRegistry()
	observeUntracked(t, New([]string{"db"}, true, reg), reg)
}

// TestDriftEmptyReferenceIgnored: anchoring on an ED with no
// observations gives its key no window, so the key stays untracked.
func TestDriftEmptyReferenceIgnored(t *testing.T) {
	reg := obs.NewRegistry()
	h := New([]string{"db"}, true, reg)
	empty, err := core.NewED(core.DefaultErrorEdges(), false, true)
	if err != nil {
		t.Fatal(err)
	}
	h.anchor(0, lowOne, empty)
	if len(h.drift) != 0 {
		t.Fatalf("an empty reference made a window: %+v", h.drift)
	}
	observeUntracked(t, h, reg)
}

// TestDriftStatusesSorted: statuses come sorted by database name, then
// query type, whatever the testbed order.
func TestDriftStatusesSorted(t *testing.T) {
	h := New([]string{"zeta", "alpha"}, true, nil)
	ref := repeat([]float64{1}, 5)
	track(h, 0, lowOne, ref)
	track(h, 1, core.TypeKey{Terms: 2, Band: core.BandLow}, ref)
	track(h, 1, lowOne, ref)
	var got []string
	for _, st := range h.DriftStatuses() {
		got = append(got, st.DB+"|"+st.QueryType)
	}
	if want := []string{"alpha|1-term/low", "alpha|2-term/low", "zeta|1-term/low"}; !slices.Equal(got, want) {
		t.Errorf("statuses in order %v, want %v", got, want)
	}
}

// TestInstallResetsWindows: a reload drops every window before it
// anchors, so a key the new model does not trust is no longer tracked —
// its observations run no test against the previous model's reference —
// and every key it does trust starts empty.
func TestInstallResetsWindows(t *testing.T) {
	tr := train(t)
	reg := obs.NewRegistry()
	h := New(tr.names, true, reg)
	h.Install(deepCopy(tr.base), "train")
	observe := func(n int) {
		for i := 0; i < n; i++ {
			q := tr.test[i%len(tr.test)]
			if _, _, err := h.Observe(0, q.String(), q.NumTerms(), float64(i%7), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	observe(20) // under any key's first test
	tracked := 0
	for _, st := range h.DriftStatuses() {
		if st.DB == tr.names[0] && st.Samples > 0 {
			tracked++
		}
	}
	if tracked == 0 {
		t.Fatal("database 0's observations reached no window")
	}

	// The reload: database 0 keeps its query types, none of them trusted.
	next := deepCopy(tr.base)
	for key, ed := range next.DBs[0].EDs {
		empty, err := core.NewED(ed.Hist.Edges, ed.Absolute, next.Cfg.UseBinMean)
		if err != nil {
			t.Fatal(err)
		}
		next.DBs[0].EDs[key] = empty
	}
	h.Install(next, "reload")
	for _, st := range h.DriftStatuses() {
		if st.DB == tr.names[0] || st.Samples != 0 {
			t.Errorf("after the reload: %+v", st)
		}
	}
	observe(300)
	for _, st := range h.DriftStatuses() {
		if st.DB == tr.names[0] {
			t.Errorf("database 0 is tracked against the previous model: %+v", st)
		}
	}
	if n := reg.Counter("mp_ed_drift_tests_total", nil).Value(); n != 0 {
		t.Errorf("database 0's observations ran %d tests after a reload that trusts none of its keys", n)
	}
}
