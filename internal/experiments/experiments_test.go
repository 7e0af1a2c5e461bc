package experiments

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"metaprobe/internal/core"
)

// sharedEnv builds one small environment for the whole test file
// (setup trains a model, so reuse keeps the suite fast).
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = Setup(SmallConfig())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// freshEnv is the shared environment with its model published afresh:
// a table run on it computes every decision into an empty memo.
func freshEnv(t *testing.T) *Env {
	env := *testEnv(t)
	env.Version = serve(env.Version.Model)
	return &env
}

func cell(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(table.rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric: %v", row, col, table.rows[row][col], err)
	}
	return v
}

func TestSetupValidation(t *testing.T) {
	cfg := SmallConfig()
	cfg.Scale = 0
	if _, err := Setup(cfg); err == nil {
		t.Error("zero scale must fail")
	}
}

func TestSetupShapes(t *testing.T) {
	env := testEnv(t)
	if env.Testbed.Len() != 20 {
		t.Errorf("testbed has %d databases, want 20", env.Testbed.Len())
	}
	if len(env.train) != 300 || len(env.Test) != 120 {
		t.Errorf("query sets %d/%d", len(env.train), len(env.Test))
	}
	if len(env.golden) != len(env.Test) {
		t.Errorf("golden %d entries for %d test queries", len(env.golden), len(env.Test))
	}
}

func TestFigure14(t *testing.T) {
	env := testEnv(t)
	table := Figure14(env)
	if len(table.rows) != 20 {
		t.Fatalf("F14 rows = %d, want 20", len(table.rows))
	}
	categories := map[string]int{}
	for _, row := range table.rows {
		categories[row[1]]++
	}
	if categories["health"] != 13 || categories["science"] != 4 || categories["news"] != 3 {
		t.Errorf("category mix %v", categories)
	}
	if !strings.Contains(table.String(), "MedWeb") {
		t.Error("table rendering lost the database names")
	}
	if !strings.Contains(table.CSV(), "database,category") {
		t.Error("CSV rendering missing header")
	}
}

func TestFigure9(t *testing.T) {
	env := testEnv(t)
	table, err := Figure9(env, "OncoLink")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) == 0 {
		t.Fatal("F9 has no rows")
	}
	// Each row's three probability cells must sum to ≈ 1.
	for ri := range table.rows {
		sum := cell(t, table, ri, 3) + cell(t, table, ri, 4) + cell(t, table, ri, 5)
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("row %d probabilities sum to %v", ri, sum)
		}
	}
	if _, err := Figure9(env, "NoSuchDB"); err == nil {
		t.Error("unknown database must fail")
	}
}

// TestFigure15Shape asserts the paper's headline shape: RD-based
// selection is at least as correct as the baseline in every cell.
func TestFigure15Shape(t *testing.T) {
	env := testEnv(t)
	table, err := Figure15(env, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 4 {
		t.Fatalf("F15 rows = %d", len(table.rows))
	}
	for pair := 0; pair < 2; pair++ {
		baseA := cell(t, table, 2*pair, 2)
		rdA := cell(t, table, 2*pair+1, 2)
		baseP := cell(t, table, 2*pair, 3)
		rdP := cell(t, table, 2*pair+1, 3)
		if rdA < baseA {
			t.Errorf("k-pair %d: RD CorA %v below baseline %v", pair, rdA, baseA)
		}
		if rdP < baseP {
			t.Errorf("k-pair %d: RD CorP %v below baseline %v", pair, rdP, baseP)
		}
	}
	// At k=1 the improvement should be clearly visible, as in the paper.
	if cell(t, table, 1, 2) <= cell(t, table, 0, 2) {
		t.Errorf("k=1: no strict improvement (baseline %v, RD %v)", cell(t, table, 0, 2), cell(t, table, 1, 2))
	}
}

// TestFigure16Shape asserts monotone-ish improvement with probes and
// agreement between the zero-probe point and RD-based selection.
func TestFigure16Shape(t *testing.T) {
	env := testEnv(t)
	const maxProbes = 4
	table, err := Figure16(env, maxProbes)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 6 {
		t.Fatalf("F16 rows = %d, want 6 (3 panels × APro/baseline)", len(table.rows))
	}
	for ri := 0; ri < len(table.rows); ri += 2 {
		apro := table.rows[ri]
		base := table.rows[ri+1]
		first := cell(t, table, ri, 1)
		last := cell(t, table, ri, maxProbes+1)
		if last < first {
			t.Errorf("series %q decreases overall: %v → %v", apro[0], first, last)
		}
		// Probing must help substantially by the end.
		if last <= cell(t, table, ri+1, 1) {
			t.Errorf("series %q never beats its baseline", apro[0])
		}
		// The baseline row must be flat.
		for c := 2; c <= maxProbes+1; c++ {
			if base[c] != base[1] {
				t.Errorf("baseline row %q not flat", base[0])
			}
		}
		// Mild monotonicity: each step may dip only by noise.
		for c := 2; c <= maxProbes+1; c++ {
			if cell(t, table, ri, c) < cell(t, table, ri, c-1)-0.05 {
				t.Errorf("series %q drops at probe %d", apro[0], c-1)
			}
		}
	}
}

// TestTablesIndependentOfWorkerCount prints Figure 16 at GOMAXPROCS 1
// and 4 and requires the same bytes, and the same bits in its k = 3
// partial curve: the queries run on any number of workers, but their
// results fold in query order. Each run starts a fresh version, so
// both compute every decision.
func TestTablesIndependentOfWorkerCount(t *testing.T) {
	run := func(procs int) (string, []float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		env := freshEnv(t)
		table, err := Figure16(env, 4)
		if err != nil {
			t.Fatal(err)
		}
		curve, baseline, err := probingCurve(env, 3, core.Partial, 4)
		if err != nil {
			t.Fatal(err)
		}
		return table.String(), append(curve, baseline)
	}
	table1, sums1 := run(1)
	table4, sums4 := run(4)
	if table1 != table4 {
		t.Errorf("Figure 16 at GOMAXPROCS 1:\n%s\nat GOMAXPROCS 4:\n%s", table1, table4)
	}
	for i := range sums1 {
		if math.Float64bits(sums1[i]) != math.Float64bits(sums4[i]) {
			t.Errorf("k=3 partial point %d: %v at GOMAXPROCS 1, %v at 4", i, sums1[i], sums4[i])
		}
	}
}

// TestTablesPrintedFromTheServingVersion: a table is the serving
// engine's, its selections filled from the environment's ModelVersion
// and decided through the version's memo. A first Figure 16 fills a
// fresh version's memo; a second prints the same bytes from it and adds
// no node.
func TestTablesPrintedFromTheServingVersion(t *testing.T) {
	env := freshEnv(t)
	first, err := Figure16(env, 4)
	if err != nil {
		t.Fatal(err)
	}
	filled, on := env.Version.Memo()
	if !on || filled == 0 {
		t.Fatalf("Figure 16 left the version's memo on=%v with %d nodes", on, filled)
	}
	again, err := Figure16(env, 4)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != first.String() {
		t.Errorf("Figure 16 computed:\n%s\nread from the memo:\n%s", first, again)
	}
	if nodes, _ := env.Version.Memo(); nodes != filled {
		t.Errorf("the second Figure 16 grew the memo from %d to %d nodes: it decided something afresh", filled, nodes)
	}
}

// TestFigure17Shape asserts probes grow with the threshold.
func TestFigure17Shape(t *testing.T) {
	env := testEnv(t)
	thresholds := []float64{0.7, 0.8, 0.9}
	table, err := Figure17(env, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 3 {
		t.Fatalf("F17 rows = %d", len(table.rows))
	}
	for ri := range table.rows {
		lo := cell(t, table, ri, 1)
		hi := cell(t, table, ri, len(thresholds))
		if hi < lo-0.01 {
			t.Errorf("series %q: probes decreased with t (%v → %v)", table.rows[ri][0], lo, hi)
		}
	}
}

func TestSamplingStudyShapes(t *testing.T) {
	perDB, avg, err := SamplingStudy(SmallSamplingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(perDB.rows) != 3 {
		t.Fatalf("F7 rows = %d, want ShowDBs=3", len(perDB.rows))
	}
	if len(avg.rows) != 1 {
		t.Fatalf("F8 rows = %d", len(avg.rows))
	}
	// The paper's observation: goodness well above the 0.05 acceptance
	// line for all sizes.
	for c := 1; c < len(avg.columns); c++ {
		if avg.rows[0][c] == "n/a" {
			continue
		}
		v := cell(t, avg, 0, c)
		if v < 0.05 {
			t.Errorf("avg goodness %v at %s below the acceptance line", v, avg.columns[c])
		}
	}
	// Invalid configurations fail fast.
	bad := SmallSamplingConfig()
	bad.Sizes = nil
	if _, _, err := SamplingStudy(bad); err == nil {
		t.Error("empty sizes must fail")
	}
}

func TestAblationPolicies(t *testing.T) {
	env := testEnv(t)
	table, err := AblationPolicies(env, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 4 {
		t.Fatalf("A1 rows = %d", len(table.rows))
	}
	// Find the greedy and random rows; greedy should need no more
	// probes than random (allow small noise).
	probes := map[string]float64{}
	for ri, row := range table.rows {
		probes[row[0]] = cell(t, table, ri, 1)
	}
	if probes["greedy"] > probes["random"]+0.5 {
		t.Errorf("greedy used %v probes vs random %v; policy looks broken", probes["greedy"], probes["random"])
	}
}

func TestAblationTypeThreshold(t *testing.T) {
	env := testEnv(t)
	table, err := AblationTypeThreshold(env, []float64{10, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 2 {
		t.Fatalf("A2 rows = %d", len(table.rows))
	}
	for ri := range table.rows {
		if v := cell(t, table, ri, 1); v < 0 || v > 1 {
			t.Errorf("row %d CorA %v out of range", ri, v)
		}
	}
}

func TestAblationEDBins(t *testing.T) {
	env := testEnv(t)
	table, err := AblationEDBins(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 4 {
		t.Fatalf("A3 rows = %d", len(table.rows))
	}
}

func TestAblationTrainingSize(t *testing.T) {
	env := testEnv(t)
	table, err := AblationTrainingSize(env, []int{50, 300, 10000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 3 {
		t.Fatalf("A4 rows = %d", len(table.rows))
	}
	// The oversize request clamps to the actual training-set size.
	if table.rows[2][0] != "300" {
		t.Errorf("clamped size = %s, want 300", table.rows[2][0])
	}
}

func TestAblationProbeCosts(t *testing.T) {
	env := testEnv(t)
	table, err := AblationProbeCosts(env, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 2 {
		t.Fatalf("A5 rows = %d", len(table.rows))
	}
	blind := cell(t, table, 0, 2)
	aware := cell(t, table, 1, 2)
	if aware > blind*1.25 {
		t.Errorf("cost-aware greedy (%v) much worse than cost-blind (%v)", aware, blind)
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		ID:      "T",
		Title:   "test",
		columns: []string{"a", "b"},
		notes:   []string{"hello"},
	}
	table.addRow("x", "y")
	s := table.String()
	if !strings.Contains(s, "T — test") || !strings.Contains(s, "note: hello") {
		t.Errorf("rendering = %q", s)
	}
	csv := table.CSV()
	if csv != "a,b\nx,y\n" {
		t.Errorf("CSV = %q", csv)
	}
}

// TestAblationOptimalPolicy validates the paper's Section 5.4 claim on
// a tiny testbed where the exact optimal policy is computable: the
// greedy policy's probe count is close to optimal, and both clearly
// beat random probing.
func TestAblationOptimalPolicy(t *testing.T) {
	cfg := SmallConfig()
	cfg.Test2, cfg.Test3 = 15, 15
	table, err := AblationOptimalPolicy(cfg, 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 3 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	probes := map[string]float64{}
	for ri, row := range table.rows {
		probes[row[0]] = cell(t, table, ri, 1)
	}
	if probes["greedy"] > probes["optimal"]+0.75 {
		t.Errorf("greedy %v probes vs optimal %v; too far from optimal", probes["greedy"], probes["optimal"])
	}
	if probes["optimal"] > probes["random"] {
		t.Errorf("optimal (%v) should not probe more than random (%v)", probes["optimal"], probes["random"])
	}
	// Degenerate inputs clamp.
	if _, err := AblationOptimalPolicy(cfg, 99, 0.85); err != nil {
		t.Errorf("oversized numDBs should clamp, got %v", err)
	}
}

// TestSimilarityVariantPipeline runs the document-similarity relevancy
// end to end (E-SIM): the probabilistic selection must remain at least
// as correct as the raw estimator under the alternative definition too.
func TestSimilarityVariantPipeline(t *testing.T) {
	cfg := SimilarityVariant(SmallConfig())
	cfg.Test2, cfg.Test3 = 40, 40
	env, err := Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Rel.Name() != "doc-similarity" {
		t.Fatalf("relevancy = %q", env.Rel.Name())
	}
	table, err := Figure15(env, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, table, 0, 2)
	rd := cell(t, table, 1, 2)
	t.Logf("similarity: baseline %v, RD-based %v", base, rd)
	if rd < base-0.05 {
		t.Errorf("similarity RD-based (%v) clearly worse than baseline (%v)", rd, base)
	}
}

// TestSamplingStudyKSCrossCheck reruns the sampling study with the
// Kolmogorov-Smirnov statistic: the paper's conclusion (goodness well
// above the acceptance line) must not depend on chi-square binning.
func TestSamplingStudyKSCrossCheck(t *testing.T) {
	cfg := SmallSamplingConfig()
	cfg.UseKS = true
	_, avg, err := SamplingStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < len(avg.columns); c++ {
		if avg.rows[0][c] == "n/a" {
			continue
		}
		if v := cell(t, avg, 0, c); v < 0.05 {
			t.Errorf("KS avg goodness %v at %s below the acceptance line", v, avg.columns[c])
		}
	}
}

// TestSamplingStudyNotesStatistic checks the F7 table self-documents
// which statistic produced its goodness values.
func TestSamplingStudyNotesStatistic(t *testing.T) {
	cfg := SmallSamplingConfig()
	cfg.UseKS = true
	perDB, _, err := SamplingStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(perDB.notes[0], "Kolmogorov") {
		t.Errorf("KS F7 note: %q", perDB.notes[0])
	}
	cfg.UseKS = false
	perDB, _, err = SamplingStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(perDB.notes[0], "chi-square") {
		t.Errorf("chi-square F7 note: %q", perDB.notes[0])
	}
}

// TestBaselineComparison (E-BASE): error-aware selection must not lose
// to either classical ranker, and probing must improve on RD-based.
func TestBaselineComparison(t *testing.T) {
	env := testEnv(t)
	table, err := BaselineComparison(env, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 5 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	byName := map[string]float64{}
	for ri, row := range table.rows {
		byName[row[0]] = cell(t, table, ri, 2)
	}
	if byName["RD-based"] < byName["term-independence"]-0.02 {
		t.Errorf("RD-based (%v) lost to term-independence (%v)", byName["RD-based"], byName["term-independence"])
	}
	if byName["APro (2 probes)"] < byName["RD-based"]-0.02 {
		t.Errorf("probing (%v) lost to RD-based (%v)", byName["APro (2 probes)"], byName["RD-based"])
	}
	// CORI must be a sane selector (clearly better than random 1/20).
	if byName["CORI"] < 0.1 {
		t.Errorf("CORI correctness %v looks broken", byName["CORI"])
	}
}

// TestDriftStudy (E-DRIFT): after a database's content drifts, online
// refinement must recover accuracy on the queries the drift re-ranked,
// without collapsing overall accuracy.
func TestDriftStudy(t *testing.T) {
	table, err := DriftStudy(SmallConfig(), "CNNHealthNews", 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 3 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	afterDriftAffected := table.rows[1][2]
	afterRefineAffected := table.rows[2][2]
	if afterDriftAffected == "n/a" || afterRefineAffected == "n/a" {
		t.Skip("drift produced no affected queries at this scale")
	}
	stale := cell(t, table, 1, 2)
	refined := cell(t, table, 2, 2)
	if refined < stale {
		t.Errorf("refinement made affected queries worse: %v -> %v", stale, refined)
	}
	overallStale := cell(t, table, 1, 1)
	overallRefined := cell(t, table, 2, 1)
	if overallRefined < overallStale-0.05 {
		t.Errorf("refinement cost too much overall: %v -> %v", overallStale, overallRefined)
	}
	// Unknown databases fail.
	if _, err := DriftStudy(SmallConfig(), "NoSuchDB", 2, 10); err == nil {
		t.Error("unknown drift database must fail")
	}
}

// TestCalibrationStudy (E-CAL): the reported certainty must track
// empirical accuracy bucket by bucket.
func TestCalibrationStudy(t *testing.T) {
	env := testEnv(t)
	table, err := CalibrationStudy(env, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 5 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	for ri, row := range table.rows {
		if row[1] == "0" {
			continue
		}
		n := cell(t, table, ri, 1)
		if n < 20 {
			continue // too noisy to assert
		}
		promised := cell(t, table, ri, 2)
		empirical := cell(t, table, ri, 3)
		// Generous band: small-sample noise plus model error.
		if empirical < promised-0.2 || empirical > promised+0.2 {
			t.Errorf("bucket %s: promised %v, empirical %v", row[0], promised, empirical)
		}
	}
	// Default bucket count.
	if table2, err := CalibrationStudy(env, 1, 0); err != nil || len(table2.rows) != 5 {
		t.Errorf("default buckets: %v rows, err %v", len(table2.rows), err)
	}
}

// TestFusionStudy (E-FUSE): fusing the selected k databases must
// recover clearly more of the global top-N than the single
// best-estimated database.
func TestFusionStudy(t *testing.T) {
	env := testEnv(t)
	table, err := FusionStudy(env, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 3 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	byName := map[string]float64{}
	for ri, row := range table.rows {
		byName[row[0]] = cell(t, table, ri, 1)
	}
	single := byName["single best estimate"]
	if byName["selected k + weighted merge"] <= single && byName["selected k + round-robin"] <= single {
		t.Errorf("fusion never beat the single database: %v", byName)
	}
	// Default topN.
	if _, err := FusionStudy(env, 2, 0); err != nil {
		t.Errorf("default topN failed: %v", err)
	}
}

// TestFigure16ZeroProbeMatchesFigure15 pins the internal consistency of
// the two experiments: Figure 16's zero-probe point is by construction
// the RD-based method of Figure 15.
func TestFigure16ZeroProbeMatchesFigure15(t *testing.T) {
	env := testEnv(t)
	f15, err := Figure15(env, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Figure16(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	rd15 := cell(t, f15, 1, 2)   // RD-based CorA at k=1
	zero16 := cell(t, f16, 0, 1) // panel (a) APro at 0 probes
	if rd15 != zero16 {
		t.Errorf("F15 RD-based (%v) != F16 zero-probe point (%v)", rd15, zero16)
	}
}

// TestSampledSummariesStudy (E-SAMP): with query-sampled summaries the
// error model must still clearly beat the raw estimator — it corrects
// sampling bias on top of correlation bias.
func TestSampledSummariesStudy(t *testing.T) {
	table, err := SampledSummariesStudy(SmallConfig(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 4 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	sampledBase := cell(t, table, 2, 2)
	sampledRD := cell(t, table, 3, 2)
	if sampledRD <= sampledBase {
		t.Errorf("sampled RD-based (%v) did not beat sampled baseline (%v)", sampledRD, sampledBase)
	}
	exactBase := cell(t, table, 0, 2)
	if sampledBase < exactBase-0.25 {
		t.Errorf("sampled baseline (%v) collapsed relative to exact (%v); sampling looks broken", sampledBase, exactBase)
	}
}

// TestPrunedSummariesStudy (E-PRUNE): at moderate-to-full budgets the
// error model must keep RD-based selection ahead of the raw estimator.
// At tiny budgets (100 terms) nearly every query lands in the
// query-independent zero band and the probabilistic model legitimately
// degrades below the baseline — E-PRUNE exists to expose that cliff,
// so the first row only needs to hold valid values.
func TestPrunedSummariesStudy(t *testing.T) {
	env := testEnv(t)
	table, err := PrunedSummariesStudy(env, []int{100, 500, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != 3 {
		t.Fatalf("rows = %d", len(table.rows))
	}
	for ri := 1; ri < len(table.rows); ri++ {
		base := cell(t, table, ri, 1)
		rd := cell(t, table, ri, 2)
		if rd < base-0.03 {
			t.Errorf("budget %s: RD-based (%v) fell below baseline (%v)", table.rows[ri][0], rd, base)
		}
	}
	for ri := range table.rows {
		for ci := 1; ci <= 2; ci++ {
			if v := cell(t, table, ri, ci); v < 0 || v > 1 {
				t.Errorf("cell (%d,%d) = %v out of range", ri, ci, v)
			}
		}
	}
	// The full budget must match Figure 15's RD value on this env.
	f15, err := Figure15(env, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if full, f15rd := cell(t, table, 2, 2), cell(t, f15, 1, 2); full != f15rd {
		t.Errorf("full-budget RD (%v) != Figure 15 RD (%v)", full, f15rd)
	}
	if table.rows[2][0] != "full" {
		t.Errorf("budget 0 labeled %q, want full", table.rows[2][0])
	}
}
