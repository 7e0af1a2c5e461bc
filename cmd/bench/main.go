// Command bench is the continuous benchmark harness of metaprobe: it
// runs standardized selection workloads over the corpus presets and
// writes a machine-readable BENCH_<label>.json so the repository keeps
// a performance *and* accuracy trajectory across changes — selection
// latency percentiles (from the shared obs histogram, the same
// estimator /metrics exposes), probes per query, achieved correctness
// against a freshly built golden standard, and a calibration summary
// of the reported certainty.
//
// Usage:
//
//	go run ./cmd/bench -label nightly [-out results] [-preset health|newsgroup|all]
//	    [-scale 0.02] [-queries 200] [-k 3] [-t 0.9] [-seed 2004]
//	go run ./cmd/bench -smoke -label ci    # CI-sized run, health preset only
//
// Each preset runs nine selection tiers over one workload: baseline
// (term-independence top-k), rd (probabilistic, no probing), apro
// (adaptive probing to the certainty threshold), two tiers on a
// latency-injected copy of the testbed — apro-ctx-m1 (one probe at a
// time) and apro-ctx-m2
// (speculation 2, two candidates probed concurrently per round) — two
// service tiers that measure the metaprobed daemon path (service:
// waves of identical concurrent requests through the batch coalescer
// at idle limits, answers asserted identical to the direct engine;
// service-overload: the same traffic under starved admission limits,
// recording shed counts by reason and availability), and
// two drift tiers that grow one database ~20× mid-run and measure
// RD-based selection against a rebuilt golden standard, first with the
// stale model served as-is (drift-stale), then after the online
// refresher has detected the drift and hot-swapped retrained error
// distributions (drift-refreshed). The report therefore tracks the
// wall-clock effect of speculative probing, probes-in-flight and
// degraded-selection counts, and what the closed drift loop buys back
// in correctness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"metaprobe"
	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/prof"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/textindex"
)

// benchConfig parameterizes one harness run.
type benchConfig struct {
	label       string
	outDir      string
	preset      string
	smoke       bool
	scale       float64
	seed        int64
	trainN      int
	queries     int
	k           int
	t           float64
	probeDelay  time.Duration
	micro       bool
	gobench     string
	baseline    string
	compareOnly bool
	profOut     string
}

// latencySummary reports selection latency in milliseconds.
type latencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

// workloadResult is one (preset, tier) measurement.
type workloadResult struct {
	Preset         string                   `json:"preset"`
	Name           string                   `json:"name"`
	Queries        int                      `json:"queries"`
	LatencyMs      latencySummary           `json:"latency_ms"`
	ProbesPerQuery float64                  `json:"probes_per_query"`
	AvgCorA        float64                  `json:"avg_cor_a"`
	AvgCorP        float64                  `json:"avg_cor_p"`
	ReachedFrac    float64                  `json:"reached_frac"`
	Calibration    *obs.CalibrationSnapshot `json:"calibration,omitempty"`
	// InflightP99 is the p99 of probes in flight sampled at each probe's
	// slot acquisition (context tiers only).
	InflightP99 float64 `json:"probe_inflight_p99,omitempty"`
	// DegradedSelections counts selections that excluded a backend
	// (context tiers only; expected 0 on a healthy testbed).
	DegradedSelections int64 `json:"degraded_selections,omitempty"`
	// SpeedupVsM1 is the m1 tier's mean latency divided by this tier's
	// (set on apro-ctx-m2 only): > 1 means speculation bought wall-clock.
	SpeedupVsM1 float64 `json:"speedup_vs_m1,omitempty"`
	// SpanOverheadFrac is (traced − untraced)/untraced mean latency of
	// this tier re-measured with span tracing enabled (apro-ctx-m2
	// only). The injected probe delay dominates the tier, so values
	// should sit well within ±5% — CI asserts that bound.
	SpanOverheadFrac *float64 `json:"span_overhead_frac,omitempty"`
	// Refreshes counts accepted online model refreshes before the
	// measurement (drift-refreshed tier only).
	Refreshes int64 `json:"refreshes,omitempty"`
	// ProfOverheadFrac is (profiled − unprofiled)/unprofiled mean
	// latency of this tier re-measured with the continuous profiler
	// (CPU + heap captures) and the runtime-metrics sampler active
	// (apro-ctx-m2 only). CI asserts ≤ 5%; the injected probe delay
	// dominates the tier, so the profiler's CPU duty cycle should
	// vanish in the mean.
	ProfOverheadFrac *float64 `json:"prof_overhead_frac,omitempty"`
	// Stages breaks the tier's selection time down by hot-path stage
	// (context tiers only), from the mp_selection_stage_* histograms.
	Stages map[string]stageSummary `json:"stages,omitempty"`
	// CoalesceRatio is requests per probe trajectory on the daemon path
	// (service tiers only): > 1 means the batch coalescer merged
	// concurrent identical requests.
	CoalesceRatio float64 `json:"coalesce_ratio,omitempty"`
	// MeanFanout is the average number of requests served per
	// trajectory, as reported on each response (service tiers only).
	MeanFanout float64 `json:"mean_fanout,omitempty"`
	// TierCounts counts answered requests by serving tier — full,
	// rd_only, rhat_only (service tiers only).
	TierCounts map[string]int64 `json:"tier_counts,omitempty"`
	// ShedCounts counts degraded requests by shed reason — overload,
	// tenant_rate (service tiers only; the idle tier must be empty).
	ShedCounts map[string]int64 `json:"shed_counts,omitempty"`
	// Availability is answered/requests (service tiers only). Shedding
	// degrades the tier but still answers, so this must stay 1.0 even
	// on the overload tier.
	Availability float64 `json:"availability,omitempty"`
	// MatchesDirect reports whether every full-tier daemon answer was
	// identical to the direct engine's (idle service tier only).
	MatchesDirect *bool `json:"matches_direct,omitempty"`
}

// stageSummary is one hot-path stage's aggregate over a tier.
type stageSummary struct {
	// Count is the number of selections that recorded the stage.
	Count int64 `json:"count"`
	// TotalSeconds is wall time summed over all selections.
	TotalSeconds float64 `json:"total_seconds"`
	// AllocsP50 is the median per-selection heap objects allocated
	// while the stage ran.
	AllocsP50 float64 `json:"allocs_p50"`
}

// benchReport is the BENCH_<label>.json document.
type benchReport struct {
	Label     string           `json:"label"`
	Time      time.Time        `json:"time"`
	Smoke     bool             `json:"smoke"`
	GoVersion string           `json:"go_version"`
	Config    benchConfigJSON  `json:"config"`
	Workloads []workloadResult `json:"workloads"`
	// Micro holds in-process testing.Benchmark measurements of the
	// algorithmic hot paths (-micro).
	Micro map[string]microResult `json:"micro,omitempty"`
	// GoBench holds measurements parsed from `go test -bench
	// -benchmem` output (-gobench FILE); with -count > 1 each
	// benchmark keeps its fastest run.
	GoBench map[string]microResult `json:"gobench,omitempty"`
}

// microResult is one microbenchmark measurement. AllocsPerOp and
// BytesPerOp are machine-independent — the primary regression gates;
// NsPerOp compares with a generous tolerance to absorb runner
// variance.
type microResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchConfigJSON is the serialized slice of benchConfig.
type benchConfigJSON struct {
	Preset  string  `json:"preset"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	TrainN  int     `json:"train_per_type"`
	Queries int     `json:"queries"`
	K       int     `json:"k"`
	T       float64 `json:"t"`
}

func main() {
	cfg := benchConfig{}
	flag.StringVar(&cfg.label, "label", "local", "run label; output file is BENCH_<label>.json")
	flag.StringVar(&cfg.outDir, "out", ".", "output directory")
	flag.StringVar(&cfg.preset, "preset", "health", "corpus preset: health, newsgroup or all")
	flag.BoolVar(&cfg.smoke, "smoke", false, "CI-sized run: tiny corpus, short workload, health preset only")
	flag.Float64Var(&cfg.scale, "scale", 0.02, "testbed size multiplier")
	flag.Int64Var(&cfg.seed, "seed", 2004, "random seed")
	flag.IntVar(&cfg.trainN, "train", 300, "training queries per term count")
	flag.IntVar(&cfg.queries, "queries", 200, "workload queries (split between 2- and 3-term)")
	flag.IntVar(&cfg.k, "k", 3, "databases to select")
	flag.Float64Var(&cfg.t, "t", 0.9, "certainty threshold for the apro tier")
	flag.DurationVar(&cfg.probeDelay, "probe-delay", 25*time.Millisecond, "injected per-probe latency for the context tiers")
	flag.BoolVar(&cfg.micro, "micro", false, "run in-process microbenchmarks (Select, ObserveProbe, RD convolution, table-lookup selection build) into the report's micro section")
	flag.StringVar(&cfg.gobench, "gobench", "", "parse `go test -bench -benchmem` output from this file into the report's gobench section")
	flag.StringVar(&cfg.baseline, "baseline", "", "compare the report against this baseline BENCH_<label>.json and exit 1 on regression")
	flag.BoolVar(&cfg.compareOnly, "compare-only", false, "skip the workload tiers; only run -micro / parse -gobench and diff against -baseline")
	flag.StringVar(&cfg.profOut, "profout", "", "dump pprof blobs captured during the prof-overhead tier into this directory")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	path, err := runBench(cfg, log)
	if err != nil {
		log.Error("bench failed", "err", err)
		os.Exit(1)
	}
	if path != "" {
		fmt.Println(path)
	}
}

// runBench executes the configured workloads and writes the report,
// returning the report path.
func runBench(cfg benchConfig, log *slog.Logger) (string, error) {
	if cfg.smoke {
		// Small enough for a CI job, large enough that correctness and
		// calibration numbers are non-degenerate.
		cfg.preset = "health"
		cfg.scale = 0.006
		cfg.trainN = 80
		cfg.queries = 40
	}
	presets := []string{cfg.preset}
	if cfg.preset == "all" {
		presets = []string{"health", "newsgroup"}
	}
	rep := benchReport{
		Label:     cfg.label,
		Time:      time.Now().UTC(),
		Smoke:     cfg.smoke,
		GoVersion: runtime.Version(),
		Config: benchConfigJSON{
			Preset: cfg.preset, Scale: cfg.scale, Seed: cfg.seed,
			TrainN: cfg.trainN, Queries: cfg.queries, K: cfg.k, T: cfg.t,
		},
	}
	if !cfg.compareOnly {
		for _, preset := range presets {
			results, err := runPreset(preset, cfg, log)
			if err != nil {
				return "", fmt.Errorf("bench: preset %s: %w", preset, err)
			}
			rep.Workloads = append(rep.Workloads, results...)
		}
	}
	if cfg.micro {
		micro, err := runMicro(cfg, log)
		if err != nil {
			return "", fmt.Errorf("bench: micro: %w", err)
		}
		rep.Micro = micro
	}
	if cfg.gobench != "" {
		gb, err := parseGoBenchFile(cfg.gobench)
		if err != nil {
			return "", fmt.Errorf("bench: gobench: %w", err)
		}
		if len(gb) == 0 {
			return "", fmt.Errorf("bench: gobench: no benchmark lines in %s", cfg.gobench)
		}
		rep.GoBench = gb
	}
	path := filepath.Join(cfg.outDir, "BENCH_"+cfg.label+".json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	log.Info("report written", "path", path, "workloads", len(rep.Workloads))
	if cfg.baseline != "" {
		if err := diffAgainstBaseline(rep, cfg.baseline, os.Stdout); err != nil {
			return "", err
		}
	}
	return path, nil
}

// presetEnv is a built-and-trained benchmark environment.
type presetEnv struct {
	ms       *metaprobe.Metasearcher
	tb       *hidden.Testbed
	world    *corpus.World
	specs    []corpus.DatabaseSpec
	workload []queries.Query
	golden   []eval.Golden
}

// buildPreset assembles the named corpus preset: testbed, summaries,
// trained metasearcher, workload queries and their golden standard.
func buildPreset(preset string, cfg benchConfig, log *slog.Logger) (*presetEnv, error) {
	var world *corpus.World
	var specs []corpus.DatabaseSpec
	switch preset {
	case "health":
		world = corpus.HealthWorld()
		specs = corpus.HealthTestbed(cfg.scale)
	case "newsgroup":
		world = corpus.NewsgroupWorld(cfg.seed)
		specs = corpus.NewsgroupTestbed(world, cfg.scale)
	default:
		return nil, fmt.Errorf("unknown preset %q (want health, newsgroup or all)", preset)
	}
	log.Info("building testbed", "preset", preset, "databases", len(specs), "scale", cfg.scale)
	tb, err := hidden.BuildTestbed(world, specs, cfg.seed)
	if err != nil {
		return nil, err
	}
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}
	sums, err := metaprobe.ExactSummaries(dbs)
	if err != nil {
		return nil, err
	}
	ms, err := metaprobe.New(dbs, sums, nil)
	if err != nil {
		return nil, err
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return nil, err
	}
	train, test, err := gen.TrainTest(stats.NewRNG(cfg.seed).Fork(1),
		cfg.trainN, cfg.trainN, (cfg.queries+1)/2, cfg.queries/2)
	if err != nil {
		return nil, err
	}
	trainStrs := make([]string, len(train))
	for i, q := range train {
		trainStrs[i] = q.String()
	}
	log.Info("training", "preset", preset, "queries", len(trainStrs))
	if err := ms.Train(trainStrs); err != nil {
		return nil, err
	}
	log.Info("building golden standard", "preset", preset, "queries", len(test))
	golden, err := eval.BuildGolden(tb, metaprobe.DocFrequencyRelevancy(), test)
	if err != nil {
		return nil, err
	}
	return &presetEnv{ms: ms, tb: tb, world: world, specs: specs, workload: test, golden: golden}, nil
}

// answer is one workload query's outcome, scored later against golden.
type answer struct {
	set       []int
	certainty float64
	probes    int
	reached   bool
}

// runPreset measures the three selection tiers on one preset.
func runPreset(preset string, cfg benchConfig, log *slog.Logger) ([]workloadResult, error) {
	env, err := buildPreset(preset, cfg, log)
	if err != nil {
		return nil, err
	}
	tiers := []struct {
		name       string
		calibrated bool
		probing    bool
		run        func(q string) (answer, error)
	}{
		{"baseline", false, false, func(q string) (answer, error) {
			names := env.ms.SelectBaseline(q, cfg.k)
			return answer{set: env.indices(names), reached: true}, nil
		}},
		{"rd", true, false, func(q string) (answer, error) {
			names, e, err := env.ms.Select(q, cfg.k, metaprobe.Absolute)
			if err != nil {
				return answer{}, err
			}
			return answer{set: env.indices(names), certainty: e, reached: true}, nil
		}},
		{"apro", true, true, func(q string) (answer, error) {
			res, err := env.ms.SelectWithCertainty(q, cfg.k, metaprobe.Absolute, cfg.t, -1)
			if err != nil {
				return answer{}, err
			}
			return answer{set: env.indices(res.Databases), certainty: res.Certainty,
				probes: res.Probes, reached: res.Reached}, nil
		}},
	}
	var out []workloadResult
	for _, tier := range tiers {
		log.Info("running workload", "preset", preset, "tier", tier.name, "queries", len(env.workload))
		res, err := env.measure(preset, tier.name, tier.calibrated, cfg, tier.run)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	ctxResults, err := runContextTiers(preset, cfg, env, log)
	if err != nil {
		return nil, err
	}
	out = append(out, ctxResults...)
	svcResults, err := runServiceTiers(preset, cfg, env, log)
	if err != nil {
		return nil, err
	}
	out = append(out, svcResults...)
	// The drift tiers mutate the testbed in place, so they must run
	// after every other tier.
	driftResults, err := runDriftTiers(preset, cfg, env, log)
	if err != nil {
		return nil, err
	}
	return append(out, driftResults...), nil
}

// runContextTiers measures the context-aware engine on a latency-
// injected copy of the testbed, once sequential (m1) and once with
// speculation 2 (m2). The trained model is reused via a temp file so
// the slow databases are only ever probed, never re-trained.
func runContextTiers(preset string, cfg benchConfig, env *presetEnv, log *slog.Logger) ([]workloadResult, error) {
	tmp, err := os.CreateTemp("", "metaprobe-bench-model-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	if err := env.ms.SaveModel(tmp.Name()); err != nil {
		return nil, err
	}
	var out []workloadResult
	var m1Mean float64
	ctxRun := func(cenv *presetEnv) func(q string) (answer, error) {
		return func(q string) (answer, error) {
			res, err := cenv.ms.SelectWithCertaintyContext(context.Background(), q, cfg.k, metaprobe.Absolute, cfg.t, -1)
			if err != nil {
				return answer{}, err
			}
			return answer{set: cenv.indices(res.Databases), certainty: res.Certainty,
				probes: res.Probes, reached: res.Reached}, nil
		}
	}
	for _, m := range []int{1, 2} {
		name := fmt.Sprintf("apro-ctx-m%d", m)
		cenv, reg, err := buildCtxEnv(env, cfg, tmp.Name(), m, false)
		if err != nil {
			return nil, err
		}
		log.Info("running workload", "preset", preset, "tier", name,
			"queries", len(env.workload), "probe_delay", cfg.probeDelay)
		res, err := cenv.measure(preset, name, true, cfg, ctxRun(cenv))
		if err != nil {
			return nil, err
		}
		res.InflightP99 = reg.Histogram("mp_probe_inflight_at_acquire", nil).Quantile(0.99)
		res.DegradedSelections = reg.Counter("mp_selections_degraded_total", nil).Value()
		res.Stages = stagesFrom(reg)
		if m == 1 {
			m1Mean = res.LatencyMs.Mean
		} else if res.LatencyMs.Mean > 0 {
			res.SpeedupVsM1 = m1Mean / res.LatencyMs.Mean
			// Re-measure the same tier with span tracing on to bound the
			// tracer's cost. Every selection records a full span tree
			// (root, probes, attempts, db.search children), so the delta
			// against the run above is the tracing overhead; the injected
			// probe delay dominates, so it should vanish in the mean.
			tenv, _, err := buildCtxEnv(env, cfg, tmp.Name(), m, true)
			if err != nil {
				return nil, err
			}
			log.Info("running workload", "preset", preset, "tier", name+"-traced",
				"queries", len(env.workload), "probe_delay", cfg.probeDelay)
			traced, err := tenv.measure(preset, name+"-traced", true, cfg, ctxRun(tenv))
			if err != nil {
				return nil, err
			}
			frac := (traced.LatencyMs.Mean - res.LatencyMs.Mean) / res.LatencyMs.Mean
			res.SpanOverheadFrac = &frac
			// Re-measure once more with the continuous profiler and the
			// runtime-metrics sampler live, to bound the performance-
			// observability layer's cost the same way. The captor's CPU
			// duty cycle (200ms of profiling per second) is deliberately
			// harsher than a production Interval, so the asserted ≤ 5%
			// budget holds margin.
			pfrac, err := profOverheadTier(preset, cfg, env, tmp.Name(), m, res.LatencyMs.Mean, ctxRun, log)
			if err != nil {
				return nil, err
			}
			res.ProfOverheadFrac = &pfrac
		}
		out = append(out, res)
	}
	return out, nil
}

// profOverheadTier re-measures the context tier with a running
// profile captor and runtime sampler bound to the tier's registry and
// returns the fractional mean-latency overhead versus baseMean. With
// -profout set, the captured pprof blobs are dumped for artifact
// upload.
func profOverheadTier(preset string, cfg benchConfig, env *presetEnv, modelPath string, m int, baseMean float64, ctxRun func(*presetEnv) func(string) (answer, error), log *slog.Logger) (float64, error) {
	penv, preg, err := buildCtxEnv(env, cfg, modelPath, m, false)
	if err != nil {
		return 0, err
	}
	captor, err := prof.New(prof.Config{
		Interval:    time.Second,
		CPUDuration: 200 * time.Millisecond,
		Capacity:    16,
		Metrics:     preg,
	})
	if err != nil {
		return 0, err
	}
	sampler := prof.NewSampler(prof.SamplerConfig{Interval: 200 * time.Millisecond, Metrics: preg})
	name := fmt.Sprintf("apro-ctx-m%d-profiled", m)
	log.Info("running workload", "preset", preset, "tier", name,
		"queries", len(env.workload), "probe_delay", cfg.probeDelay)
	captor.Start(context.Background())
	sampler.Start(context.Background())
	profiled, err := penv.measure(preset, name, true, cfg, ctxRun(penv))
	captor.Stop()
	sampler.Stop()
	if err != nil {
		return 0, err
	}
	if cfg.profOut != "" {
		if err := dumpProfiles(captor, cfg.profOut); err != nil {
			return 0, err
		}
	}
	caps := captor.List()
	log.Info("prof overhead tier done", "captures", len(caps),
		"goroutines", sampler.Snapshot()["mp_runtime_goroutines"])
	if len(caps) == 0 {
		return 0, fmt.Errorf("prof-overhead tier recorded no profile captures")
	}
	if baseMean <= 0 {
		return 0, fmt.Errorf("prof-overhead tier has no baseline mean")
	}
	return (profiled.LatencyMs.Mean - baseMean) / baseMean, nil
}

// dumpProfiles writes every retained capture as <kind>-<id>.pb.gz
// under dir (created if missing), so CI can upload them as artifacts.
func dumpProfiles(c *prof.Captor, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cp := range c.List() {
		name := filepath.Join(dir, fmt.Sprintf("%s-%d.pb.gz", cp.Kind, cp.ID))
		if err := os.WriteFile(name, cp.Blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stagesFrom summarizes the mp_selection_stage_* histograms a context
// tier filled in its private registry.
func stagesFrom(reg *metaprobe.Metrics) map[string]stageSummary {
	out := make(map[string]stageSummary)
	for _, stage := range []string{core.StageRDConvolve, core.StageECorDP, core.StageRank, core.StageProbe} {
		lbl := obs.Labels{"stage": stage}
		secs := reg.Histogram("mp_selection_stage_seconds", lbl)
		if secs.Count() == 0 {
			continue
		}
		out[stage] = stageSummary{
			Count:        secs.Count(),
			TotalSeconds: secs.Sum(),
			AllocsP50:    reg.Histogram("mp_selection_stage_allocs", lbl).Quantile(0.5),
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// runDriftTiers measures what model staleness costs and what the
// closed drift loop buys back. One database grows to ~20× its size
// with documents from its own spec — same topic profile, ten times the
// volume — the golden standard is rebuilt over the drifted corpus, and
// RD-based selection (no probing, so the numbers isolate pure model
// quality) is measured twice: with the stale model served as-is
// (drift-stale), and after the online refresher has detected the drift
// and hot-swapped retrained error distributions (drift-refreshed).
//
// The drifted database is chosen so the drift is visible to selection:
// among databases large enough that the growth makes them the biggest
// collection, the one appearing in the fewest pre-drift golden top-k
// sets. Growing a database that already tops every answer set changes
// nothing a selector can get wrong; growing one that was mostly absent
// moves it INTO the true top-k, which the stale model misses and the
// refreshed model recovers.
func runDriftTiers(preset string, cfg benchConfig, env *presetEnv, log *slog.Logger) ([]workloadResult, error) {
	tmp, err := os.CreateTemp("", "metaprobe-bench-drift-model-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	if err := env.ms.SaveModel(tmp.Name()); err != nil {
		return nil, err
	}

	// Pick the drift database (see the function comment): least golden
	// top-k membership among those that ×10 growth would make dominant.
	maxSize := 0
	for i := 0; i < env.tb.Len(); i++ {
		if l, ok := env.tb.DB(i).(*hidden.Local); ok && l.Size() > maxSize {
			maxSize = l.Size()
		}
	}
	membership := make([]int, env.tb.Len())
	for qi := range env.golden {
		for _, i := range env.golden[qi].TopK(cfg.k) {
			membership[i]++
		}
	}
	idx := -1
	for i := 0; i < env.tb.Len(); i++ {
		l, ok := env.tb.DB(i).(*hidden.Local)
		if !ok || l.Size()*20 <= maxSize {
			continue
		}
		if idx < 0 || membership[i] < membership[idx] {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("bench: no database large enough to drift in preset %s", preset)
	}
	// Grow it in place; summaries and the saved model now describe a
	// collection that no longer exists.
	local := env.tb.DB(idx).(*hidden.Local)
	spec := env.specs[idx]
	spec.Name += "-grown"
	spec.NumDocs = local.Size() * 19
	log.Info("injecting corpus drift", "preset", preset, "db", local.Name(),
		"docs_before", local.Size(), "docs_added", spec.NumDocs,
		"golden_topk_hits_before", membership[idx], "queries", len(env.workload))
	docs, err := env.world.Generate(spec, stats.NewRNG(cfg.seed).Fork(9))
	if err != nil {
		return nil, err
	}
	tok := textindex.DefaultTokenizer()
	for _, d := range docs {
		terms := make([]string, 0, len(d.Terms))
		for _, term := range d.Terms {
			terms = append(terms, tok.Tokenize(term)...)
		}
		local.Index().AddTerms(d.ID, terms)
		local.StoreText(d.ID, d.Text())
	}
	golden, err := eval.BuildGolden(env.tb, metaprobe.DocFrequencyRelevancy(), env.workload)
	if err != nil {
		return nil, err
	}

	dbs := make([]metaprobe.Database, env.tb.Len())
	for i := range dbs {
		dbs[i] = env.tb.DB(i)
	}
	rdRun := func(ms *metaprobe.Metasearcher) func(q string) (answer, error) {
		return func(q string) (answer, error) {
			names, e, err := ms.Select(q, cfg.k, metaprobe.Absolute)
			if err != nil {
				return answer{}, err
			}
			return answer{set: indicesIn(env.tb, names), certainty: e, reached: true}, nil
		}
	}

	// Tier 1: the stale model served unchanged over the drifted corpus.
	staleMs, err := metaprobe.NewFromModel(dbs, tmp.Name(), nil)
	if err != nil {
		return nil, err
	}
	denv := &presetEnv{ms: staleMs, tb: env.tb, workload: env.workload, golden: golden}
	log.Info("running workload", "preset", preset, "tier", "drift-stale", "queries", len(env.workload))
	stale, err := denv.measure(preset, "drift-stale", true, cfg, rdRun(staleMs))
	if err != nil {
		return nil, err
	}

	// Tier 2: the same stale model, but with the drift loop closed —
	// detection alerts the background refresher, which re-probes the
	// drifted keys and hot-swaps retrained EDs before measurement.
	gen, err := queries.NewGenerator(env.world, queries.Config{})
	if err != nil {
		return nil, err
	}
	pool, err := gen.Pool(stats.NewRNG(cfg.seed).Fork(10), 400, 400)
	if err != nil {
		return nil, err
	}
	source := func(numTerms, n int) []string {
		var out []string
		for _, q := range pool {
			if q.NumTerms() == numTerms {
				out = append(out, q.String())
				if len(out) >= n {
					break
				}
			}
		}
		return out
	}
	// 32-sample windows arm slower than the drifted database's busiest
	// key but give the KS test enough resolution that the injected
	// drift's p-value sits orders of magnitude below alpha; testing
	// every 8 observations keeps the sparser 3-term keys alerting
	// within a few passes. False alarms on undrifted databases are
	// statistically inevitable at this test cadence, but the hour-long
	// refresh cooldown below bounds each one to a single no-op commit.
	refreshedMs, err := metaprobe.NewFromModel(dbs, tmp.Name(), &metaprobe.Config{
		Drift: &metaprobe.DriftConfig{WindowSize: 32, MinSamples: 32, Interval: 8},
		Refresh: &metaprobe.RefreshConfig{
			ProbeBudget: 128, MinProbes: 12,
			// Longer than the whole drive loop: every alerted key
			// commits exactly once, so the measured model is the same
			// regardless of how alert timing interleaves with passes.
			Cooldown: time.Hour,
			Queries:  source,
			Logger:   log,
		},
	})
	if err != nil {
		return nil, err
	}
	defer refreshedMs.Close()
	// Drive the workload at certainty 1.0: the threshold is only reached
	// once every database has been probed, so every database — including
	// the drifted one, whose stale estimate is too low for any cheaper
	// threshold to ever probe it — feeds the drift detector. Replay
	// until the drifted database's first refresh commits, then a few
	// more passes so its remaining (query type, band) keys — the drift
	// hits 2- and 3-term, low- and zero-band estimates alike — alert and
	// commit too (rolled-back attempts retry after the cooldown).
	pass := func() error {
		for _, q := range env.workload {
			if _, err := refreshedMs.SelectWithCertainty(q.String(), cfg.k, metaprobe.Absolute, 1.0, -1); err != nil {
				return err
			}
		}
		return nil
	}
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) && refreshedMs.ModelInfo().RefreshedAt[local.Name()].IsZero() {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	// Then drive to quiescence: with the hour-long cooldown each alerted
	// key commits once, so once six consecutive passes commit nothing
	// new, every key the detector can flag — the drifted database's
	// sparser 3-term keys arm their 32-sample windows slowly — has been
	// refreshed.
	deadline = time.Now().Add(120 * time.Second)
	for stable := 0; stable < 6 && time.Now().Before(deadline); {
		before := refreshedMs.RefreshStats().Refreshes
		if err := pass(); err != nil {
			return nil, err
		}
		if refreshedMs.RefreshStats().Refreshes == before {
			stable++
		} else {
			stable = 0
		}
	}
	st := refreshedMs.RefreshStats()
	info := refreshedMs.ModelInfo()
	log.Info("drift loop closed", "preset", preset, "db", local.Name(),
		"refreshes", st.Refreshes, "rollbacks", st.Rollbacks,
		"refresh_probes", st.ProbesSpent, "model_version", info.Version)
	denv.ms = refreshedMs
	log.Info("running workload", "preset", preset, "tier", "drift-refreshed", "queries", len(env.workload))
	refreshed, err := denv.measure(preset, "drift-refreshed", true, cfg, rdRun(refreshedMs))
	if err != nil {
		return nil, err
	}
	refreshed.Refreshes = st.Refreshes
	return []workloadResult{stale, refreshed}, nil
}

// indicesIn maps database names to sorted testbed indices.
func indicesIn(tb *hidden.Testbed, names []string) []int {
	e := presetEnv{tb: tb}
	return e.indices(names)
}

// buildCtxEnv reloads the trained model over a latency-injected view
// of the testbed and configures the probe-execution engine with the
// given speculation width. With traced set, every selection records a
// full span tree into a fresh tracer (the overhead-measurement
// configuration).
func buildCtxEnv(env *presetEnv, cfg benchConfig, modelPath string, m int, traced bool) (*presetEnv, *metaprobe.Metrics, error) {
	dbs := make([]metaprobe.Database, env.tb.Len())
	for i := range dbs {
		dbs[i] = hidden.NewLatency(env.tb.DB(i), cfg.probeDelay)
	}
	reg := metaprobe.NewMetrics()
	obs.RegisterBuildInfo(reg, "bench", strconv.Itoa(core.FormatVersion))
	c := &metaprobe.Config{
		Speculation: m,
		Metrics:     reg,
	}
	if traced {
		c.Spans = metaprobe.NewSpanTracer(0)
		c.Spans.Bind(reg)
	}
	ms, err := metaprobe.NewFromModel(dbs, modelPath, c)
	if err != nil {
		return nil, nil, err
	}
	return &presetEnv{ms: ms, tb: env.tb, workload: env.workload, golden: env.golden}, reg, nil
}

// indices maps database names back to testbed indices (sorted).
func (e *presetEnv) indices(names []string) []int {
	out := make([]int, 0, len(names))
	for _, n := range names {
		if i := e.tb.IndexOf(n); i >= 0 {
			out = append(out, i)
		}
	}
	// Selection results come back in testbed order already; keep the
	// contract explicit for CorA's sorted-set comparison.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// measure replays the workload through one tier, collecting latency
// quantiles (shared obs histogram), probe counts, correctness against
// the golden standard, and — for certainty-reporting tiers — the
// calibration of the reported certainty.
func (e *presetEnv) measure(preset, name string, calibrated bool, cfg benchConfig, run func(q string) (answer, error)) (workloadResult, error) {
	hist := obs.NewHistogram()
	cal := obs.NewCalibration(0)
	res := workloadResult{Preset: preset, Name: name, Queries: len(e.workload)}
	var probes, corA, corP, reached float64
	for qi, q := range e.workload {
		start := time.Now()
		a, err := run(q.String())
		if err != nil {
			return workloadResult{}, err
		}
		hist.Observe(time.Since(start).Seconds())
		topk := e.golden[qi].TopK(cfg.k)
		ca, cp := eval.CorA(a.set, topk), eval.CorP(a.set, topk)
		corA += ca
		corP += cp
		probes += float64(a.probes)
		if a.reached {
			reached++
		}
		if calibrated {
			cal.Observe(a.certainty, ca)
		}
	}
	n := float64(len(e.workload))
	qs := hist.Quantiles(0.50, 0.90, 0.99)
	res.LatencyMs = latencySummary{
		P50:  qs[0] * 1000,
		P90:  qs[1] * 1000,
		P99:  qs[2] * 1000,
		Mean: hist.Sum() / n * 1000,
	}
	res.ProbesPerQuery = probes / n
	res.AvgCorA = corA / n
	res.AvgCorP = corP / n
	res.ReachedFrac = reached / n
	if calibrated {
		snap := cal.Snapshot()
		res.Calibration = &snap
	}
	return res, nil
}
