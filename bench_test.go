package metaprobe

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md's
// experiment index) plus the ablations and micro-benchmarks. Each
// figure benchmark regenerates the corresponding table and prints it
// once, so `go test -bench=.` reproduces the paper's evaluation
// artifacts end to end.
//
// Benchmarks run on a scaled-down testbed (see experiments.SmallConfig)
// so the full suite finishes in minutes; run cmd/experiments for the
// larger default configuration.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/experiments"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// benchEnv is shared across figure benchmarks (setup trains a model
// and builds a golden standard; rebuilding it per benchmark would
// dominate every measurement).
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error

	printOnce sync.Map
)

func benchEnv(b testing.TB) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnvVal, benchEnvErr = experiments.Setup(experiments.SmallConfig())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// printTable prints an experiment table once per benchmark name.
func printTable(name string, tables ...*experiments.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	for _, t := range tables {
		fmt.Printf("\n%s\n", t)
	}
}

// BenchmarkFigure07SamplingGoodnessPerDB regenerates Figure 7: the
// chi-square goodness of sampled error distributions per database.
func BenchmarkFigure07SamplingGoodnessPerDB(b *testing.B) {
	cfg := experiments.SmallSamplingConfig()
	for i := 0; i < b.N; i++ {
		perDB, _, err := experiments.SamplingStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("F7", perDB)
	}
}

// BenchmarkFigure08SamplingGoodnessAvg regenerates Figure 8: average
// goodness over the 20 newsgroup databases.
func BenchmarkFigure08SamplingGoodnessAvg(b *testing.B) {
	cfg := experiments.SmallSamplingConfig()
	for i := 0; i < b.N; i++ {
		_, avg, err := experiments.SamplingStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("F8", avg)
	}
}

// BenchmarkFigure09QueryTypeEDs regenerates Figure 9: the per-type
// error distributions of one database.
func BenchmarkFigure09QueryTypeEDs(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Figure9(env, "OncoLink")
		if err != nil {
			b.Fatal(err)
		}
		printTable("F9", table)
	}
}

// BenchmarkFigure14DatabaseInventory regenerates Figure 14: the
// mediated-database table.
func BenchmarkFigure14DatabaseInventory(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printTable("F14", experiments.Figure14(env))
	}
}

// BenchmarkFigure15RDVsBaseline regenerates Figure 15: RD-based
// selection vs. the term-independence baseline at k ∈ {1, 3}.
func BenchmarkFigure15RDVsBaseline(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Figure15(env, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		printTable("F15", table)
	}
}

// BenchmarkFigure16CorrectnessVsProbes regenerates Figure 16: average
// correctness after 0..p probes for the three panels.
func BenchmarkFigure16CorrectnessVsProbes(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Figure16(env, 6)
		if err != nil {
			b.Fatal(err)
		}
		printTable("F16", table)
	}
}

// BenchmarkFigure17ProbesVsThreshold regenerates Figure 17: average
// probes needed per user-required certainty level.
func BenchmarkFigure17ProbesVsThreshold(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Figure17(env, []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95})
		if err != nil {
			b.Fatal(err)
		}
		printTable("F17", table)
	}
}

// BenchmarkAblationProbePolicies regenerates ablation A1: greedy vs
// random vs by-estimate vs max-entropy probing.
func BenchmarkAblationProbePolicies(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationPolicies(env, 0.8, 1)
		if err != nil {
			b.Fatal(err)
		}
		printTable("A1", table)
	}
}

// BenchmarkAblationTypeThreshold regenerates ablation A2: the
// query-type split threshold θ.
func BenchmarkAblationTypeThreshold(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationTypeThreshold(env, []float64{10, 50, 100, 500}, 1)
		if err != nil {
			b.Fatal(err)
		}
		printTable("A2", table)
	}
}

// BenchmarkAblationEDBins regenerates ablation A3: histogram
// resolution and bin representative.
func BenchmarkAblationEDBins(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationEDBins(env, 1)
		if err != nil {
			b.Fatal(err)
		}
		printTable("A3", table)
	}
}

// BenchmarkAblationTrainingSize regenerates ablation A4: error-model
// quality vs training-set size.
func BenchmarkAblationTrainingSize(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationTrainingSize(env, []int{50, 100, 200, 300}, 1)
		if err != nil {
			b.Fatal(err)
		}
		printTable("A4", table)
	}
}

// BenchmarkAblationProbeCosts regenerates ablation A5: cost-aware vs
// cost-blind greedy probing under non-uniform probe costs.
func BenchmarkAblationProbeCosts(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationProbeCosts(env, 0.8, 1)
		if err != nil {
			b.Fatal(err)
		}
		printTable("A5", table)
	}
}

// BenchmarkExtensionBaselineComparison regenerates E-BASE: classical
// selectors (term-independence, CORI) against RD-based selection and
// fixed-budget APro.
func BenchmarkExtensionBaselineComparison(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.BaselineComparison(env, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		printTable("EBASE", table)
	}
}

// --- Micro-benchmarks: the hot paths behind the figures. ---

// BenchmarkEstimate measures one Eq. 1 estimate from a summary.
func BenchmarkEstimate(b *testing.B) {
	env := benchEnv(b)
	q := env.Test[0].String()
	sum := env.Summaries.Summaries[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Rel.Estimate(sum, q)
	}
}

// BenchmarkProbe measures one live probe (boolean-AND match count) on
// the largest database of the testbed.
func BenchmarkProbe(b *testing.B) {
	env := benchEnv(b)
	big := 0
	for i, s := range env.Summaries.Summaries {
		if s.Size > env.Summaries.Summaries[big].Size {
			big = i
		}
	}
	q := env.Test[0].String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Rel.Probe(env.Testbed.DB(big), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectionBest measures one best-set search (k=3, absolute
// metric) over 20 database RDs.
func BenchmarkSelectionBest(b *testing.B) {
	env := benchEnv(b)
	q := env.Test[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memoless(env.Selection(q, core.Absolute, 3), core.Absolute, 3).Best()
	}
}

// BenchmarkGreedyProbeStep measures one greedy policy decision (the
// dominant cost of APro).
func BenchmarkGreedyProbeStep(b *testing.B) {
	env := benchEnv(b)
	q := env.Test[0]
	g := &core.Greedy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Next(memoless(env.Selection(q, core.Absolute, 1), core.Absolute, 1), 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// runHotPath times one hot-path body: set-up outside the timer, then
// one call per iteration with allocations reported.
func runHotPath(b *testing.B, body func(testing.TB) func()) {
	run := body(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// precomputedProbe answers probes for the first test query from a table
// filled up front, so a selection body measures selection compute, not
// index lookups.
func precomputedProbe(tb testing.TB, env *experiments.Env) core.ProbeFunc {
	q := env.Test[0].String()
	actual := make([]float64, env.Testbed.Len())
	for i := range actual {
		v, err := env.Rel.Probe(env.Testbed.DB(i), q)
		if err != nil {
			tb.Fatal(err)
		}
		actual[i] = v
	}
	return func(db int) (float64, error) { return actual[db], nil }
}

// aproSelectBody is one full adaptive-probing selection: fill the
// per-query state from the version's RD table and run greedy APro to a
// 0.9 certainty, computing every decision (no memo).
func aproSelectBody(tb testing.TB) func() {
	env := benchEnv(tb)
	q := env.Test[0]
	probe := precomputedProbe(tb, env)
	return func() {
		sel := memoless(env.Selection(q, core.Absolute, 3), core.Absolute, 3)
		if _, err := core.APro(sel, probe, &core.Greedy{}, 0.9, -1); err != nil {
			tb.Fatal(err)
		}
	}
}

// aproSelectSteadyBody is the steady-state serving path: the per-query
// state is Reuse'd from a prebuilt template and APro writes into a
// reused Outcome, so after warm-up the whole selection — incremental
// E[Cor], greedy ranking, probe application — runs out of pooled
// scratch.
func aproSelectSteadyBody(tb testing.TB) func() {
	run, _ := aproSelectSteady(tb)
	return run
}

// aproSelectSteady is aproSelectSteadyBody with the selection it runs
// on, whose Work is the last run's.
func aproSelectSteady(tb testing.TB) (func(), *core.Selection) {
	env := benchEnv(tb)
	q := env.Test[0]
	probe := precomputedProbe(tb, env)
	template := memoless(env.Selection(q, core.Absolute, 3), core.Absolute, 3)
	sel := &core.Selection{}
	g := &core.Greedy{}
	var out core.Outcome
	run := func() {
		sel.Reuse(template)
		if err := core.AProContext(context.Background(), sel, probe, g, 0.9, -1, &out); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm-up: grow buffers, fill the pool
		run()
	}
	return run, sel
}

// aproSelectMemoHitBody is the repeated query: the selection is Reuse'd
// from a template filled through a ModelVersion, so it carries the
// template's memo node, and every decision of the trajectory — warmed up
// once — is read back from the version's memo.
func aproSelectMemoHitBody(tb testing.TB) func() {
	env := benchEnv(tb)
	q := env.Test[0]
	probe := precomputedProbe(tb, env)
	ver := core.NewModelVersion(env.Version.Model, "bench", time.Now())
	template := ver.NewSelection(q.String(), q.NumTerms(), core.Absolute, 3)
	sel := &core.Selection{}
	g := core.Greedy{}
	var out core.Outcome
	run := func() {
		sel.Reuse(template)
		if err := core.AProContext(context.Background(), sel, probe, g, 0.9, -1, &out); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm-up: fill the memo, grow buffers
		run()
	}
	if w := sel.Work(); w.MemoMisses != 0 || w.MemoHits == 0 || out.Probes() == 0 {
		tb.Fatalf("the warmed-up body is no memo hit: %d probes, work %+v", out.Probes(), w)
	}
	return run
}

// BenchmarkAProSelect measures one full adaptive-probing selection,
// probes answered from a precomputed table. TestHotPathAllocCaps holds
// its allocs/op; the ns/op gate is the pipeline's bounds on benchmark/.
func BenchmarkAProSelect(b *testing.B) { runHotPath(b, aproSelectBody) }

// steadyHypothesesCeiling bounds BenchmarkAProSelectSteady's
// hypotheses/op, 10 % over the 86 that Greedy.Rank evaluates on the first
// test query, where its per-value bound skips and gives up candidates.
// The count is deterministic: a ProbeFunc runs no lookahead.
const steadyHypothesesCeiling = 86 * 1.1

// BenchmarkAProSelectSteady measures the steady-state serving path.
// TestHotPathAllocCaps holds it to ≤ 2 allocs/op absolute, whatever an
// earlier commit measured. It reports the hypotheses one selection
// evaluates, hypotheses/op, and fails above steadyHypothesesCeiling.
func BenchmarkAProSelectSteady(b *testing.B) {
	run, sel := aproSelectSteady(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	hyps := float64(sel.Work().Hypotheses)
	b.ReportMetric(hyps, "hypotheses/op")
	if hyps > steadyHypothesesCeiling {
		b.Fatalf("one selection evaluates %.0f hypotheses, over the ceiling of %.1f", hyps, steadyHypothesesCeiling)
	}
}

// BenchmarkAProSelectMemoHit measures the same trajectory with every
// decision read from the version's memo: what is left is folding the
// probes. The two benchmarks above copy their selections out of the
// memo's reach and keep measuring rank.
func BenchmarkAProSelectMemoHit(b *testing.B) { runHotPath(b, aproSelectMemoHitBody) }

// BenchmarkGreedyRankColdTail pins the query shape that sets the serving
// tail (the 3–4 % of cpu-select queries that need eleven or more
// probes): 20 databases, 12 of them already probed at relevancy 0, and
// 8 wide RDs of 11 support values each that overlap so heavily that the
// best E[Cor] stays far under t until almost all are probed — so every
// rank step sweeps many hypotheses and the marginal prune cuts little.
// One iteration is Reuse + AProContext from that state to t = 0.9 at k = 3;
// it must not allocate.
func BenchmarkGreedyRankColdTail(b *testing.B) {
	const n, cold, bins = 20, 12, 11
	rds := make([]*core.RD, n)
	truth := make([]float64, n)
	probs := make([]float64, bins)
	for j := range probs {
		probs[j] = 1 + float64(j%3) // uneven, so no two outcomes tie
	}
	for i := range rds {
		if i%5 < 3 { // 12 cold databases spread over the index range
			rds[i] = core.Impulse(0)
			continue
		}
		vals := make([]float64, bins)
		for j := range vals {
			vals[j] = 100 + 10*float64(j) + float64(i)/4
		}
		rds[i] = core.MustRD(vals, probs)
		truth[i] = vals[bins/2]
	}
	template := core.NewSelectionFromRDs(rds, core.Absolute, 3)
	for i, rd := range rds {
		if rd.Len() == 1 { // the cold impulses
			template.ApplyProbe(i, 0)
		}
	}
	probe := core.ProbeFunc(func(db int) (float64, error) { return truth[db], nil })
	sel := core.NewSelectionFromRDs(rds, core.Absolute, 3)
	g := core.Greedy{}
	var out core.Outcome
	run := func() {
		sel.Reuse(template)
		if err := core.AProContext(context.Background(), sel, probe, g, 0.9, -1, &out); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm-up: grow buffers, fill the pool
		run()
	}
	if out.Probes() < n-cold-1 {
		b.Fatalf("the cold tail took %d probes, want at least %d: the shape no longer stresses rank", out.Probes(), n-cold-1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// versionObserveProbeBody is the serving write path: one observation
// folded into a ModelVersion — into the ED at once, into its RD rows
// with the epoch's publication, which the per-op numbers amortise —
// cycling over queries × databases so that several keys go dirty.
func versionObserveProbeBody(tb testing.TB) func() {
	env := benchEnv(tb)
	ver := core.NewModelVersion(env.Version.Model, "bench", time.Now())
	qs := env.Test[:16]
	actual, err := env.Rel.Probe(env.Testbed.DB(0), qs[0].String())
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func() {
		q, db := qs[i%len(qs)], i/len(qs)%env.Testbed.Len()
		i++
		if err := ver.ObserveProbe(db, q.String(), q.NumTerms(), actual); err != nil {
			tb.Fatal(err)
		}
	}
}

// newSelectionBody builds the per-query state through a ModelVersion's
// precomputed RD table into a recycled shell, cycling over the test
// queries.
func newSelectionBody(tb testing.TB) func() {
	env := benchEnv(tb)
	ver := core.NewModelVersion(env.Version.Model, "bench", time.Now())
	qs := env.Test
	sel := &core.Selection{}
	i := 0
	run := func() {
		q := qs[i%len(qs)]
		i++
		if ver.FillSelection(sel, q.String(), q.NumTerms(), core.Absolute, 3) == nil {
			tb.Fatal("nil selection")
		}
	}
	for w := 0; w < 3; w++ {
		run()
	}
	return run
}

// observedSelectBody is BenchmarkSelectWithCertainty's full/repeat leg:
// the facade's probing selection with Metrics and Spans on, as every
// daemon request runs it, over a short query list that cycles, so its
// decisions are read from the memo and what is left is the selection's
// record — span, attributes, step and stage events, series.
func observedSelectBody(tb testing.TB) func() {
	ms, queries := buildTestMetasearcher(tb)
	ms.setSinks(NewMetrics(), NewSpanTracer(0))
	i := 0
	run := func() {
		if _, err := ms.SelectWithCertainty(ms.nextQuery(queries, i, false), 2, Absolute, 0.9, -1); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for range queries { // warm-up: one pass fills the memo
		run()
	}
	return run
}

// BenchmarkVersionObserveProbe measures what a serving version pays per
// probe for online refinement: the observation folded into its ED, and
// the epoch's row publication.
func BenchmarkVersionObserveProbe(b *testing.B) { runHotPath(b, versionObserveProbeBody) }

// BenchmarkNewSelection measures the table-lookup serving path that
// builds a query's initial state.
func BenchmarkNewSelection(b *testing.B) { runHotPath(b, newSelectionBody) }

// TestHotPathAllocCaps holds the hot paths' heap objects per operation,
// measured on the benchmarks' own bodies. Each cap is ×1.10 + 2 over
// the count at the commit that last moved it (116, 12, 11 and 113
// allocs/op; the full selection took 488 while it convolved its RDs
// instead of reading the version's table, and the observed selection
// 123 while a per-selection stage recorder and a latency exemplar store
// still stood beside its span), except the steady-state serving path,
// which stays at ≤ 2 absolute, and the memo-hit path, which after the
// fill allocates nothing. Object counts are the machine-independent
// gate; time is held by the pipeline's bounds on benchmark/. The
// observed selection goes through the facade's pooled shells, and under
// the race detector a sync.Pool drops a random quarter of what is put
// back, so there it has no count to hold.
func TestHotPathAllocCaps(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(testing.TB) func()
		max  float64
	}{
		{"AProSelect", aproSelectBody, 116*1.10 + 2},
		{"AProSelectSteady", aproSelectSteadyBody, 2},
		{"AProSelectMemoHit", aproSelectMemoHitBody, 0},
		{"VersionObserveProbe", versionObserveProbeBody, 12*1.10 + 2},
		{"NewSelection", newSelectionBody, 11*1.10 + 2},
		{"ObservedSelect", observedSelectBody, 113*1.10 + 2},
	} {
		if c.name == "ObservedSelect" && raceEnabled {
			continue
		}
		got := testing.AllocsPerRun(100, c.body(t))
		t.Logf("%s: %.0f allocs/op (cap %.1f)", c.name, got, c.max)
		if got > c.max {
			t.Errorf("%s allocates %.0f objects per op, cap %.1f", c.name, got, c.max)
		}
	}
}

// BenchmarkTrainPerDatabase measures learning one database's EDs from
// 300 training queries.
func BenchmarkTrainPerDatabase(b *testing.B) {
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(0.01)[:1], 5)
	if err != nil {
		b.Fatal(err)
	}
	sums, err := summary.BuildExact(tb)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		b.Fatal(err)
	}
	train, err := gen.Pool(stats.NewRNG(1), 150, 150)
	if err != nil {
		b.Fatal(err)
	}
	rel := estimate.NewDocFrequency()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(tb, sums, rel, train, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures indexing a 1 000-document database.
func BenchmarkIndexBuild(b *testing.B) {
	world := corpus.HealthWorld()
	spec := corpus.DatabaseSpec{
		Name: "bench", NumDocs: 1000, MeanDocLen: 25,
		TopicWeights:    map[string]float64{"oncology": 1},
		ConceptAffinity: 0.4,
	}
	docs, err := world.Generate(spec, stats.NewRNG(9))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hidden.BuildLocal("bench", docs)
	}
}

// BenchmarkExtensionCalibration regenerates E-CAL: certainty
// calibration of RD-based selection.
func BenchmarkExtensionCalibration(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.CalibrationStudy(env, 1, 5)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ECAL", table)
	}
}

// BenchmarkExtensionDrift regenerates E-DRIFT: online refinement under
// content drift (each iteration builds its own environment — the study
// mutates a database).
func BenchmarkExtensionDrift(b *testing.B) {
	cfg := experiments.SmallConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.DriftStudy(cfg, "CNNHealthNews", 8, 400)
		if err != nil {
			b.Fatal(err)
		}
		printTable("EDRIFT", table)
	}
}

// BenchmarkExtensionFusion regenerates E-FUSE: result-fusion quality
// against the global top-N ground truth.
func BenchmarkExtensionFusion(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.FusionStudy(env, 3, 10)
		if err != nil {
			b.Fatal(err)
		}
		printTable("EFUSE", table)
	}
}

// BenchmarkExtensionSampledSummaries regenerates E-SAMP: the pipeline
// under query-based-sampled content summaries.
func BenchmarkExtensionSampledSummaries(b *testing.B) {
	cfg := experiments.SmallConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.SampledSummariesStudy(cfg, 60)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ESAMP", table)
	}
}
