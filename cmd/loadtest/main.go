// Command loadtest replays a query workload against a trained
// metasearcher and reports end-to-end latency percentiles, probe
// counts, throughput, and — by scoring every selection against a
// freshly built golden standard — the calibration of the certainty
// the selections report. Per-probe network latency is injected so the
// trade-off the paper's Section 5.2 worries about — every probe is a
// remote round trip — shows up in wall-clock numbers.
//
// With -speculation probes for the policy's runners-up are prefetched
// concurrently, and with -deadline a per-query deadline abandons
// selections that overrun it.
//
// With -trace every selection records a span tree (the run reports
// the slowest query's trace ID), and with -serve the process stays up
// after the replay serving the shared ops tree — /metrics (with trace
// exemplars), /debug/spans, /debug/slo, /debug/profiles, /debug/pprof,
// /healthz and /readyz — so the recorded traces and burn rates can be
// inspected.
//
// With -target the same workload is replayed against a running
// metaprobed daemon instead of the in-process library: each query
// becomes a wave of -repeat concurrent identical requests (the batch
// coalescer's unit of mergeable work), and the report adds tier
// distribution, shed counts, and coalesce statistics. -fail-on-shed
// turns "no shedding at idle load" into an exit code for CI.
//
// Usage:
//
//	go run ./cmd/loadtest [-queries 400] [-concurrency 4]
//	    [-latency 5ms] [-k 3] [-t 0.9] [-scale 0.02] [-v]
//	    [-speculation 2] [-deadline 2s] [-max-inflight 16]
//	    [-trace] [-serve :8091]
//	go run ./cmd/loadtest -target http://localhost:8091 [-tenant acme]
//	    [-repeat 8] [-fail-on-shed]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"metaprobe"
	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/prof"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// loadConfig parameterizes one load-test run.
type loadConfig struct {
	scale       float64
	seed        int64
	trainN      int
	numQueries  int
	concurrency int
	latency     time.Duration
	k           int
	t           float64
	speculation int
	deadline    time.Duration
	maxInflight int
	trace       bool
	serve       string
}

// loadReport summarizes a run.
type loadReport struct {
	queries     int
	wall        time.Duration
	p50, p90    time.Duration
	p99         time.Duration
	avgProbes   float64
	reachedFrac float64
	// degraded counts selections that excluded at least one backend
	// (probe failure or open circuit breaker).
	degraded int
	// avgCorA is the mean absolute correctness of the selections
	// against the golden standard.
	avgCorA float64
	// calibration summarizes how well the reported certainty predicted
	// the realized correctness.
	calibration obs.CalibrationSnapshot
	// slowest is the slowest selection and slowestTrace its span-tree
	// trace ID (set with -trace).
	slowest      time.Duration
	slowestTrace string
	// Probe-cost totals aggregated from every selection's cost account.
	costProbes, costHedgesWasted, costCacheHits int
	costBytes                                   int64
	// slo is the end-of-run burn-rate snapshot.
	slo obs.SLOSnapshot
	// runtime is the final runtime-telemetry sample (heap, GC pauses,
	// scheduler latency) taken after the replay drained.
	runtime map[string]float64
	// metrics is the final Prometheus-format snapshot of the registry
	// every database wrapper and selection call recorded into.
	metrics string

	// Live handles for -serve (kept past the replay).
	reg   *metaprobe.Metrics
	spans *metaprobe.SpanTracer
	sloT  *metaprobe.SLO
}

func main() {
	cfg := loadConfig{}
	flag.Float64Var(&cfg.scale, "scale", 0.02, "testbed size multiplier")
	flag.Int64Var(&cfg.seed, "seed", 2004, "random seed")
	flag.IntVar(&cfg.trainN, "train", 300, "training queries per term count")
	flag.IntVar(&cfg.numQueries, "queries", 400, "workload size")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "concurrent searchers")
	flag.DurationVar(&cfg.latency, "latency", 5*time.Millisecond, "injected per-probe latency")
	flag.IntVar(&cfg.k, "k", 3, "databases to select")
	flag.Float64Var(&cfg.t, "t", 0.9, "certainty threshold")
	flag.IntVar(&cfg.speculation, "speculation", 1, "probes in flight per selection round (>1 prefetches the policy's runners-up)")
	flag.DurationVar(&cfg.deadline, "deadline", 0, "per-query deadline (0 = none)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "global cap on concurrent probes (0 = executor default)")
	flag.BoolVar(&cfg.trace, "trace", false, "record a span tree per selection")
	flag.StringVar(&cfg.serve, "serve", "", "after the replay, serve /metrics /debug/spans /debug/slo on this address")
	var rc remoteConfig
	flag.StringVar(&rc.target, "target", "", "base URL of a running metaprobed (remote mode; empty drives the in-process library)")
	flag.StringVar(&rc.tenant, "tenant", "", "tenant to address in remote mode (empty: the daemon default)")
	flag.IntVar(&rc.repeat, "repeat", 1, "concurrent identical requests per query in remote mode (>1 exercises the batch coalescer)")
	flag.BoolVar(&rc.failOnShed, "fail-on-shed", false, "remote mode: exit non-zero if any response was served below full tier")
	verbose := flag.Bool("v", false, "log every selection (with its correlation ID) at debug level")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if rc.target != "" {
		rep, err := runRemote(cfg, rc, logger)
		if err != nil {
			logger.Error(err.Error())
			os.Exit(1)
		}
		printRemoteReport(os.Stdout, cfg, rc, rep)
		if rep.failures > 0 {
			logger.Error("remote run had failed requests", "failures", rep.failures)
			os.Exit(1)
		}
		if rc.failOnShed && rep.shedCount() > 0 {
			logger.Error("responses were shed below full tier", "shed", rep.shedCount())
			os.Exit(1)
		}
		return
	}
	rep, err := runLoadTest(cfg, logger)
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	printReport(os.Stdout, cfg, rep)
	if cfg.serve != "" {
		if err := serveObservability(cfg.serve, rep, logger); err != nil {
			logger.Error(err.Error())
			os.Exit(1)
		}
	}
}

// serveObservability keeps the process up after the replay serving
// the recorded observability state, with continuous profiling and
// runtime telemetry running until SIGINT/SIGTERM. Shutdown drains the
// listener, then stops the captor (flushing one final heap capture)
// and the sampler (one final runtime sample).
func serveObservability(addr string, rep loadReport, logger *slog.Logger) error {
	captor, err := prof.New(prof.Config{Metrics: rep.reg})
	if err != nil {
		return err
	}
	sampler := prof.NewSampler(prof.SamplerConfig{Metrics: rep.reg})
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	captor.Start(ctx)
	sampler.Start(ctx)

	srv := &http.Server{Addr: addr, Handler: newServeMux(rep, captor)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving observability endpoints",
		"addr", addr, "endpoints", "/metrics /debug/spans /debug/slo /debug/profiles /debug/goroutines /debug/pprof /healthz /readyz")
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("server shutdown", "err", err)
		}
		captor.Stop()
		sampler.Stop()
		logger.Info("profiler stopped", "captures_retained", len(captor.List()))
		return nil
	}
}

// newServeMux is the -serve surface: the shared ops tree over the
// replay's recorded sinks (no spans without -trace; always ready).
func newServeMux(rep loadReport, captor *prof.Captor) *http.ServeMux {
	mux := http.NewServeMux()
	ops.Mount(mux, ops.Sinks{
		Metrics:  rep.reg,
		Spans:    rep.spans,
		SLO:      rep.sloT,
		Profiles: captor,
	})
	return mux
}

// runLoadTest builds the testbed, trains, and replays the workload.
// Progress goes to log; per-selection debug lines carry the same
// correlation ID as the selection's trace.
func runLoadTest(cfg loadConfig, log *slog.Logger) (loadReport, error) {
	log.Info("building the testbed", "scale", cfg.scale, "probe_latency", cfg.latency)
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(cfg.scale), cfg.seed)
	if err != nil {
		return loadReport{}, err
	}
	reg := metaprobe.NewMetrics()
	obs.RegisterBuildInfo(reg, "loadtest", strconv.Itoa(core.FormatVersion))
	// Runtime telemetry runs for the whole replay; Stop flushes a final
	// sample before the metrics snapshot is taken, so the report's
	// mp_runtime_* series describe the post-replay state.
	sampler := prof.NewSampler(prof.SamplerConfig{Interval: time.Second, Metrics: reg})
	sampler.Start(context.Background())
	defer sampler.Stop()
	var spans *metaprobe.SpanTracer
	if cfg.trace {
		spans = metaprobe.NewSpanTracer(0)
		spans.Bind(reg)
	}
	slo := metaprobe.NewSLO(metaprobe.SLOConfig{})
	slo.Bind(reg)
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		dbs[i] = metaprobe.InstrumentDatabase(hidden.NewLatency(tb.DB(i), cfg.latency), reg)
	}
	// Summaries are computed from the raw databases; training and
	// query-time traffic go through the wrappers, so the per-database
	// metrics include the training workload.
	raw := make([]metaprobe.Database, tb.Len())
	for i := range raw {
		raw[i] = tb.DB(i)
	}
	sums, err := metaprobe.ExactSummaries(raw)
	if err != nil {
		return loadReport{}, err
	}
	ms, err := metaprobe.New(dbs, sums, &metaprobe.Config{
		Metrics:          reg,
		Spans:            spans,
		SLO:              slo,
		Speculation:      cfg.speculation,
		ProbeConcurrency: metaprobe.ProbeLimits{Global: cfg.maxInflight},
	})
	if err != nil {
		return loadReport{}, err
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return loadReport{}, err
	}
	trainPool, err := gen.Pool(stats.NewRNG(cfg.seed).Fork(1), cfg.trainN, cfg.trainN)
	if err != nil {
		return loadReport{}, err
	}
	train := make([]string, len(trainPool))
	for i, q := range trainPool {
		train[i] = q.String()
	}
	log.Info("training", "queries", len(train))
	if err := ms.Train(train); err != nil {
		return loadReport{}, err
	}
	half := (cfg.numQueries + 1) / 2
	workload, err := gen.Pool(stats.NewRNG(cfg.seed).Fork(2), half, cfg.numQueries-half)
	if err != nil {
		return loadReport{}, err
	}
	// The golden standard (true top-k per workload query, from the raw
	// databases) turns each selection's certainty into a testable
	// prediction: realized correctness feeds the calibration
	// accumulator, exported as the mp_calibration_* series.
	log.Info("building the golden standard", "queries", len(workload))
	golden, err := eval.BuildGolden(tb, metaprobe.DocFrequencyRelevancy(), workload)
	if err != nil {
		return loadReport{}, err
	}
	cal := metaprobe.NewCalibration(0)
	cal.Bind(reg)

	log.Info("replaying workload", "queries", len(workload), "concurrency", cfg.concurrency)
	latencyHist := reg.Histogram("loadtest_query_latency_seconds", nil)
	reg.Help("loadtest_query_latency_seconds", "End-to-end latency of one workload query.")
	type sample struct {
		probes   int
		reached  bool
		degraded bool
		corA     float64
	}
	samples := make([]sample, len(workload))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	// Aggregated across workers: the slowest selection (with its trace
	// ID, the waterfall entry point) and the probe-cost totals.
	var costMu sync.Mutex
	var slowest time.Duration
	var slowestTrace string
	var costProbes, costHedgesWasted, costCacheHits int
	var costBytes int64
	start := time.Now()
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range jobs {
				qStart := time.Now()
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if cfg.deadline > 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
				}
				res, err := ms.SelectWithCertaintyContext(ctx, workload[qi].String(), cfg.k, metaprobe.Absolute, cfg.t, -1)
				cancel()
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				elapsed := time.Since(qStart)
				latencyHist.Observe(elapsed.Seconds())
				costMu.Lock()
				if elapsed > slowest {
					slowest = elapsed
					slowestTrace = res.TraceID
				}
				if res.Cost != nil {
					costProbes += res.Cost.ProbesIssued
					costHedgesWasted += res.Cost.HedgesWasted
					costCacheHits += res.Cost.CacheHits
					costBytes += res.Cost.BytesFetched
				}
				costMu.Unlock()
				topk := golden[qi].TopK(cfg.k)
				set := make([]int, 0, len(res.Databases))
				for _, name := range res.Databases {
					if di := tb.IndexOf(name); di >= 0 {
						set = append(set, di)
					}
				}
				corA := eval.CorA(set, topk)
				cal.Observe(res.Certainty, corA)
				log.Debug("selection",
					"selection", res.ID, "query", workload[qi].String(),
					"certainty", res.Certainty, "probes", res.Probes, "cor_a", corA,
					"degraded", res.Degraded)
				samples[qi] = sample{probes: res.Probes, reached: res.Reached, degraded: res.Degraded, corA: corA}
			}
		}()
	}
	for qi := range workload {
		jobs <- qi
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return loadReport{}, firstErr
	}
	wall := time.Since(start)

	var probes, reached, corA float64
	var degraded int
	for _, s := range samples {
		probes += float64(s.probes)
		corA += s.corA
		if s.reached {
			reached++
		}
		if s.degraded {
			degraded++
		}
	}
	// Percentiles come from the shared obs histogram — the same
	// estimator the /metrics endpoint exposes — instead of ad-hoc
	// sorting.
	qs := latencyHist.Quantiles(0.50, 0.90, 0.99)
	// Stop (idempotent with the deferred call) flushes a final runtime
	// sample so the snapshot below reflects the drained state.
	sampler.Stop()
	var snapshot strings.Builder
	if err := reg.WritePrometheus(&snapshot); err != nil {
		return loadReport{}, err
	}
	return loadReport{
		queries:          len(workload),
		wall:             wall,
		p50:              time.Duration(qs[0] * float64(time.Second)),
		p90:              time.Duration(qs[1] * float64(time.Second)),
		p99:              time.Duration(qs[2] * float64(time.Second)),
		avgProbes:        probes / float64(len(workload)),
		reachedFrac:      reached / float64(len(workload)),
		degraded:         degraded,
		avgCorA:          corA / float64(len(workload)),
		calibration:      cal.Snapshot(),
		slowest:          slowest,
		slowestTrace:     slowestTrace,
		costProbes:       costProbes,
		costHedgesWasted: costHedgesWasted,
		costCacheHits:    costCacheHits,
		costBytes:        costBytes,
		slo:              slo.Snapshot(),
		runtime:          sampler.Snapshot(),
		metrics:          snapshot.String(),
		reg:              reg,
		spans:            spans,
		sloT:             slo,
	}, nil
}

// printReport renders the report.
func printReport(w *os.File, cfg loadConfig, rep loadReport) {
	fmt.Fprintf(w, "\nqueries          %d (k=%d, t=%.2f, %v/probe, concurrency %d)\n",
		rep.queries, cfg.k, cfg.t, cfg.latency, cfg.concurrency)
	fmt.Fprintf(w, "wall time        %v (%.1f qps)\n", rep.wall.Round(time.Millisecond),
		float64(rep.queries)/rep.wall.Seconds())
	fmt.Fprintf(w, "latency p50      %v\n", rep.p50.Round(time.Microsecond))
	fmt.Fprintf(w, "latency p90      %v\n", rep.p90.Round(time.Microsecond))
	fmt.Fprintf(w, "latency p99      %v\n", rep.p99.Round(time.Microsecond))
	fmt.Fprintf(w, "avg probes       %.2f\n", rep.avgProbes)
	fmt.Fprintf(w, "reached target   %.1f%%\n", rep.reachedFrac*100)
	fmt.Fprintf(w, "degraded         %d\n", rep.degraded)
	fmt.Fprintf(w, "avg Cor_a        %.3f\n", rep.avgCorA)
	fmt.Fprintf(w, "calibration      Brier %.3f, ECE %.3f, gap %+.3f over %d selections\n",
		rep.calibration.Brier, rep.calibration.ECE, rep.calibration.Gap, rep.calibration.Samples)
	if rep.costProbes > 0 || rep.costBytes > 0 {
		fmt.Fprintf(w, "probe cost       %d probes, %d wasted hedges, %d cache hits, %d bytes fetched\n",
			rep.costProbes, rep.costHedgesWasted, rep.costCacheHits, rep.costBytes)
	}
	if rep.slowestTrace != "" {
		fmt.Fprintf(w, "slowest          %v, trace %s (inspect at /debug/spans?trace=%s with -serve)\n",
			rep.slowest.Round(time.Microsecond), rep.slowestTrace, rep.slowestTrace)
	}
	for _, win := range rep.slo.Windows {
		fmt.Fprintf(w, "slo %-12s latency burn %.2f, availability burn %.2f\n",
			win.Window, win.LatencyBurnRate, win.AvailabilityBurnRate)
	}
	if rep.runtime != nil {
		if v, ok := rep.runtime["mp_runtime_heap_inuse_bytes"]; ok {
			fmt.Fprintf(w, "runtime          heap in use %.1f MiB", v/(1<<20))
			if g, ok := rep.runtime["mp_runtime_goroutines"]; ok {
				fmt.Fprintf(w, ", %0.f goroutines", g)
			}
			if c, ok := rep.runtime["mp_runtime_gc_cycles_total"]; ok {
				fmt.Fprintf(w, ", %0.f GC cycles", c)
			}
			fmt.Fprintln(w)
		}
		if p50, ok := rep.runtime["mp_runtime_gc_pause_seconds{q=0.5}"]; ok {
			p99 := rep.runtime["mp_runtime_gc_pause_seconds{q=0.99}"]
			fmt.Fprintf(w, "gc pause         p50 %.3fms, p99 %.3fms\n", p50*1e3, p99*1e3)
		}
		if p50, ok := rep.runtime["mp_runtime_sched_latency_seconds{q=0.5}"]; ok {
			p99 := rep.runtime["mp_runtime_sched_latency_seconds{q=0.99}"]
			fmt.Fprintf(w, "sched latency    p50 %.3fms, p99 %.3fms\n", p50*1e3, p99*1e3)
		}
	}
	if rep.metrics != "" {
		fmt.Fprintf(w, "\n--- metrics snapshot (Prometheus text format) ---\n%s", rep.metrics)
	}
}
