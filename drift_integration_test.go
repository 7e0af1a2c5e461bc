package metaprobe

import (
	"strings"
	"testing"

	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// TestDriftDetectionEndToEnd is the acceptance test for the drift
// monitor: live probes on an unchanged corpus must not alert, and the
// same workload after one database's content drifts (a specialty site
// growing ~10× in its own topic profile while the trained summaries
// and error model go stale — the experiments.DriftStudy scenario with
// volume rather than topic drift) must trip mp_ed_drift_alerts_total
// and DriftStatuses naming the drifted database.
func TestDriftDetectionEndToEnd(t *testing.T) {
	world := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.01)[:6]
	tb, err := hidden.BuildTestbed(world, specs, 23)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}
	sums, err := ExactSummaries(dbs)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	cfg := &Config{Metrics: reg, Drift: true}
	ms, err := New(dbs, sums, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 400 distinct held-out queries: enough probes for the 32-sample
	// first test on an unchanged corpus in one pass. Replaying a shorter
	// workload instead repeats the same errors, which the test can flag.
	train, test, err := gen.TrainTest(stats.NewRNG(4), 150, 150, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	trainStrs := make([]string, len(train))
	for i, q := range train {
		trainStrs[i] = q.String()
	}
	if err := ms.Train(trainStrs); err != nil {
		t.Fatal(err)
	}

	// drive replays the workload with a high certainty threshold so
	// adaptive probing touches (and thus drift-samples) every database.
	drive := func() {
		t.Helper()
		for _, q := range test {
			if _, err := ms.SelectWithCertainty(q.String(), 2, Absolute, 0.99, -1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: unchanged corpus. Tests must run, alerts must not fire.
	drive()
	var tests, statusAlerts int64
	for _, s := range ms.DriftStatuses() {
		tests += s.Tests
		statusAlerts += s.Alerts
	}
	if tests == 0 {
		t.Fatal("no KS tests ran on the undrifted workload; drift windows never filled")
	}
	if statusAlerts != 0 {
		t.Fatalf("undrifted corpus raised %d alerts: %+v", statusAlerts, ms.DriftStatuses())
	}

	// The drift: NeuroBase gains ~10× its size in documents drawn from
	// its own topic profile — a volume burst that multiplies every
	// query's match count — while summaries and the error model stay
	// stale.
	const driftDB = "NeuroBase"
	dbIdx := tb.IndexOf(driftDB)
	if dbIdx < 0 {
		t.Fatalf("testbed lost %s", driftDB)
	}
	local, ok := tb.DB(dbIdx).(*hidden.Local)
	if !ok {
		t.Fatalf("%s is not a local database", driftDB)
	}
	driftSpec := corpus.DatabaseSpec{
		Name:            driftDB + "-drift",
		NumDocs:         local.Size() * 10,
		MeanDocLen:      25,
		TopicWeights:    map[string]float64{"neurology": 8, "mentalhealth": 2, "pharma": 1},
		ConceptAffinity: 0.48,
	}
	newDocs, err := world.Generate(driftSpec, stats.NewRNG(23).Fork(999))
	if err != nil {
		t.Fatal(err)
	}
	local.AddDocuments(newDocs)

	// Phase 2: same workload over the shifted corpus, twice, so every
	// sparse (database, query type) window fills with post-drift
	// samples.
	drive()
	drive()
	var driftedAlerts int64
	for _, s := range ms.DriftStatuses() {
		if s.DB == driftDB {
			driftedAlerts += s.Alerts
		}
	}
	if driftedAlerts == 0 {
		t.Fatalf("no alert names the drifted database %s: %+v", driftDB, ms.DriftStatuses())
	}

	// The alert counter must surface in the Prometheus exposition.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `mp_ed_drift_alerts_total{db="`+driftDB+`"}`) {
		t.Errorf("metrics output lacks mp_ed_drift_alerts_total for %s:\n%s", driftDB, grepLines(out, "mp_ed_drift"))
	}
	if !strings.Contains(out, "mp_ed_drift_tests_total") {
		t.Error("metrics output lacks mp_ed_drift_tests_total")
	}
}

// grepLines filters s to lines containing substr, for failure output.
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
