package main

import (
	"context"
	"flag"
	"fmt"
	"html/template"
	"net/http"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"metaprobe"
	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/prof"
	"metaprobe/internal/obs/span"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// web serves a browser front-end over a trained metasearcher: a search
// form, the fused results with snippets, the selection diagnostics
// (which databases were chosen, at what certainty, with how many
// probes) with a span waterfall of the request path, plus the
// shared ops tree (ops.Mount): /metrics (Prometheus text format with
// trace exemplars), /debug/spans, /debug/slo, /debug/calibration,
// /debug/model and /debug/profiles (JSON), /debug/goroutines,
// /debug/pprof, and the /healthz + /readyz probes (readiness covers
// training state and refresher health).
func web(args []string) {
	fs := flag.NewFlagSet("web", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	scale := fs.Float64("scale", 0.02, "testbed size multiplier")
	trainN := fs.Int("train", 300, "training queries per term count")
	seed := fs.Int64("seed", 2004, "random seed")
	profInterval := fs.Duration("prof-interval", 30*time.Second, "continuous-profiling capture interval (0 disables)")
	fs.Parse(args)

	logger.Info("building and training the metasearcher", "scale", *scale)
	ms, env, err := buildDemoMetasearcher(*scale, *seed, *trainN)
	if err != nil {
		fatal(err)
	}

	// Continuous profiling and runtime telemetry run for the lifetime
	// of the server; SIGINT/SIGTERM drains the listener, then stops the
	// captor (flushing one final heap profile) and the sampler (one
	// final runtime sample), so the last captures reflect shutdown
	// state rather than whenever the ticker last fired.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *profInterval > 0 {
		captor, err := prof.New(prof.Config{Interval: *profInterval, Metrics: env.reg})
		if err != nil {
			fatal(err)
		}
		env.captor = captor
		env.sampler = prof.NewSampler(prof.SamplerConfig{Metrics: env.reg})
		env.captor.Start(ctx)
		env.sampler.Start(ctx)
	}

	srv := &http.Server{Addr: *addr, Handler: newWebMux(ms, env)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving the metasearch UI",
		"addr", *addr,
		"endpoints", "/metrics /debug/spans /debug/slo /debug/calibration /debug/model /debug/profiles /debug/goroutines /debug/pprof /healthz /readyz")
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("server shutdown", "err", err)
		}
		env.captor.Stop()
		env.sampler.Stop()
		logger.Info("profiler stopped", "captures_retained", len(env.captor.List()))
	}
}

// webEnv bundles the observability state behind the demo server: the
// metrics registry and span store the metasearcher writes into, the
// certainty-calibration accumulator fed by post-selection audits, and
// direct handles on the per-database result caches for the
// diagnostics panel.
type webEnv struct {
	reg    *metaprobe.Metrics
	spans  *metaprobe.SpanTracer
	slo    *metaprobe.SLO
	cal    *metaprobe.Calibration
	caches []webCache
	// captor and sampler are the continuous profiler and the
	// runtime-metrics sampler; nil when profiling is disabled
	// (/debug/profiles is then not mounted and the telemetry panel
	// degrades gracefully).
	captor  *prof.Captor
	sampler *prof.Sampler
}

// webCache pairs a database name with its cache wrapper.
type webCache struct {
	name  string
	cache *hidden.Cached
}

// buildDemoMetasearcher assembles the health testbed behind the web
// UI. Each database is wrapped with a result cache and metric
// instrumentation; summaries are computed from the raw databases, but
// training traffic flows through the wrappers, so the metrics start
// with the training workload already recorded. Drift detection runs
// with default settings — every UI-triggered probe doubles as a drift
// sample.
func buildDemoMetasearcher(scale float64, seed int64, trainN int) (*metaprobe.Metasearcher, *webEnv, error) {
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(scale), seed)
	if err != nil {
		return nil, nil, err
	}
	raw := make([]metaprobe.Database, tb.Len())
	for i := range raw {
		raw[i] = tb.DB(i)
	}
	sums, err := metaprobe.ExactSummaries(raw)
	if err != nil {
		return nil, nil, err
	}
	env := &webEnv{
		reg:   metaprobe.NewMetrics(),
		spans: metaprobe.NewSpanTracer(0),
		slo:   metaprobe.NewSLO(metaprobe.SLOConfig{}),
		cal:   metaprobe.NewCalibration(0),
	}
	env.spans.Bind(env.reg)
	env.slo.Bind(env.reg)
	env.cal.Bind(env.reg)
	obs.RegisterBuildInfo(env.reg, "metaprobe", strconv.Itoa(core.FormatVersion))
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		cached := hidden.NewCached(tb.DB(i), 512)
		env.caches = append(env.caches, webCache{name: tb.DB(i).Name(), cache: cached})
		dbs[i] = metaprobe.InstrumentDatabase(cached, env.reg)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return nil, nil, err
	}
	// A held-out workload-like pool feeds the online refresher's
	// retraining probes (disjoint seed fork from the training pool).
	refreshPool, err := gen.Pool(stats.NewRNG(seed).Fork(2), 400, 400)
	if err != nil {
		return nil, nil, err
	}
	refreshQueries := func(numTerms, n int) []string {
		var out []string
		for _, q := range refreshPool {
			if q.NumTerms() == numTerms {
				out = append(out, q.String())
				if len(out) >= n {
					break
				}
			}
		}
		return out
	}
	ms, err := metaprobe.New(dbs, sums, &metaprobe.Config{
		Metrics: env.reg,
		Spans:   env.spans,
		SLO:     env.slo,
		Drift:   &metaprobe.DriftConfig{},
		OnDrift: func(a metaprobe.DriftAlert) {
			logger.Warn("error-distribution drift detected",
				"db", a.DB, "type", a.QueryType,
				"statistic", a.Statistic, "pvalue", a.PValue, "samples", a.Samples)
		},
		// Close the loop: drift alerts trigger background retraining of
		// the affected error distributions with a hot model swap; follow
		// it at /debug/model.
		Refresh: &metaprobe.RefreshConfig{Queries: refreshQueries},
	})
	if err != nil {
		return nil, nil, err
	}
	pool, err := gen.Pool(stats.NewRNG(seed).Fork(1), trainN, trainN)
	if err != nil {
		return nil, nil, err
	}
	train := make([]string, len(pool))
	for i, q := range pool {
		train[i] = q.String()
	}
	if err := ms.Train(train); err != nil {
		return nil, nil, err
	}
	return ms, env, nil
}

// newWebMux routes the UI at "/" alongside the shared ops tree; any
// other path is a 404.
func newWebMux(ms *metaprobe.Metasearcher, env *webEnv) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/{$}", NewWebUI(ms, env))
	ops.Mount(mux, ops.Sinks{
		Metrics:     env.reg,
		Spans:       env.spans,
		SLO:         env.slo,
		Calibration: env.cal,
		Profiles:    env.captor,
		Model:       func() any { return ms.ModelInfo() },
		Ready:       ms.Ready,
	})
	return mux
}

// WebUI is the HTTP handler of the metasearch front-end.
type WebUI struct {
	ms  *metaprobe.Metasearcher
	env *webEnv
	tpl *template.Template
}

// NewWebUI wraps a trained metasearcher as a browser UI. env may be
// nil when the server runs without observability.
func NewWebUI(ms *metaprobe.Metasearcher, env *webEnv) *WebUI {
	return &WebUI{ms: ms, env: env, tpl: template.Must(template.New("page").Parse(webPage))}
}

// cacheRow is one line of the cache diagnostics panel.
type cacheRow struct {
	Database     string
	Hits, Misses int64
	// HitRate is a percentage in [0, 100].
	HitRate float64
}

// waterfallRow is one span bar of the selection-waterfall panel:
// name and detail to label it, depth to indent it, and percentages to
// position the bar on a 100%-wide track.
type waterfallRow struct {
	Name       string
	Detail     string
	Indent     float64
	DurationMs float64
	LeftPct    float64
	WidthPct   float64
	Err        bool
}

// webData feeds the page template.
type webData struct {
	Query       string
	K           int
	T           float64
	Ran         bool
	Elapsed     string
	Selection   *metaprobe.SelectionResult
	Realized    float64
	Audited     bool
	Items       []metaprobe.MergedResult
	Explain     []metaprobe.Explanation
	Error       string
	Databases   []string
	Caches      []cacheRow
	Runtime     []runtimeRow
	Calibration *metaprobe.CalibrationSnapshot
	Model       metaprobe.ModelInfo
	TraceID     string
	Waterfall   []waterfallRow
	Cost        *metaprobe.CostSummary
}

// ServeHTTP implements http.Handler.
func (u *WebUI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data := webData{K: 3, T: 0.9, Databases: u.ms.Databases(), Model: u.ms.ModelInfo()}
	if u.env != nil {
		data.Runtime = runtimeRows(u.env.sampler)
	}
	q := r.URL.Query().Get("q")
	if kStr := r.URL.Query().Get("k"); kStr != "" {
		if k, err := strconv.Atoi(kStr); err == nil && k >= 1 && k <= len(data.Databases) {
			data.K = k
		}
	}
	if tStr := r.URL.Query().Get("t"); tStr != "" {
		if t, err := strconv.ParseFloat(tStr, 64); err == nil && t >= 0 && t <= 1 {
			data.T = t
		}
	}
	if q != "" {
		data.Query = q
		data.Ran = true
		start := time.Now()
		items, sel, err := u.ms.MetasearchContext(r.Context(), q, data.K, metaprobe.Partial, data.T, 10)
		if err != nil {
			data.Error = err.Error()
			logger.Error("metasearch failed", "query", q, "err", err)
		} else {
			data.Items = items
			data.Selection = sel
			data.TraceID = sel.TraceID
			data.Waterfall = u.waterfall(sel.TraceID)
			data.Cost = sel.Cost
			logger.Info("metasearch",
				"selection", sel.ID, "query", q, "k", data.K,
				"certainty", sel.Certainty, "probes", sel.Probes, "results", len(items))
			// The audit live-probes every database for the realized
			// correctness of this selection — the ground truth the
			// certainty claims to predict. The result caches make the
			// extra probes cheap.
			if u.env != nil && u.env.cal != nil {
				if realized, err := u.ms.Audit(u.env.cal, q, metaprobe.Partial, sel.Databases, sel.Certainty); err == nil {
					data.Realized = realized
					data.Audited = true
				} else {
					logger.Error("calibration audit failed", "selection", sel.ID, "query", q, "err", err)
				}
			}
			if expl, err := u.ms.Explain(q, data.K); err == nil {
				// Show only databases with some signal, most likely first.
				for _, e := range expl {
					if e.MembershipProb >= 0.01 || e.Estimate > 0 {
						data.Explain = append(data.Explain, e)
					}
				}
			}
		}
		data.Elapsed = time.Since(start).Round(time.Millisecond).String()
		data.Caches = u.cacheRows()
		if u.env != nil && u.env.cal != nil {
			snap := u.env.cal.Snapshot()
			data.Calibration = &snap
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := u.tpl.Execute(w, data); err != nil {
		logger.Error("rendering page failed", "err", err)
	}
}

// waterfall renders the stored span tree of one trace as indented
// bars scaled to the trace's total duration. Spans still open when the
// page renders (a cancelled hedge loser, say) are simply absent — the
// store only holds ended spans.
func (u *WebUI) waterfall(traceID string) []waterfallRow {
	if u.env == nil || u.env.spans == nil || traceID == "" {
		return nil
	}
	roots := u.env.spans.Tree(traceID)
	nodes := span.Flatten(roots)
	if len(nodes) == 0 {
		return nil
	}
	var total float64
	for _, n := range roots {
		if end := n.OffsetMs + n.DurationMs; end > total {
			total = end
		}
	}
	if total <= 0 {
		total = 1
	}
	rows := make([]waterfallRow, 0, len(nodes))
	for _, n := range nodes {
		row := waterfallRow{
			Name:       n.Name,
			Indent:     0.9 * float64(n.Depth),
			DurationMs: n.DurationMs,
			LeftPct:    100 * n.OffsetMs / total,
			WidthPct:   100 * n.DurationMs / total,
			Err:        n.Span.Error != "",
		}
		if row.WidthPct < 0.4 {
			row.WidthPct = 0.4 // keep instant spans visible
		}
		if d, ok := n.Span.Attrs["backend"]; ok {
			row.Detail = d
		} else if d, ok := n.Span.Attrs["db"]; ok {
			row.Detail = d
		}
		rows = append(rows, row)
	}
	return rows
}

// runtimeRow is one line of the runtime-telemetry panel.
type runtimeRow struct {
	Name  string
	Value string
}

// runtimeRows renders the sampler's latest snapshot as a short,
// curated table: memory, GC pressure, and scheduler health. Series a
// Go version does not expose are simply absent.
func runtimeRows(sampler *prof.Sampler) []runtimeRow {
	if sampler == nil {
		return nil
	}
	// Refresh so the panel shows "now", not the last ticker fire.
	sampler.Sample()
	snap := sampler.Snapshot()
	ms := func(sec float64) string { return fmt.Sprintf("%.3f ms", sec*1e3) }
	mib := func(b float64) string { return fmt.Sprintf("%.1f MiB", b/(1<<20)) }
	count := func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
	specs := []struct {
		key    string
		label  string
		format func(float64) string
	}{
		{"mp_runtime_heap_inuse_bytes", "heap in use", mib},
		{"mp_runtime_gc_goal_bytes", "GC goal", mib},
		{"mp_runtime_goroutines", "goroutines", count},
		{"mp_runtime_gc_cycles_total", "GC cycles", count},
		{"mp_runtime_gc_pause_seconds{q=0.5}", "GC pause p50", ms},
		{"mp_runtime_gc_pause_seconds{q=0.99}", "GC pause p99", ms},
		{"mp_runtime_sched_latency_seconds{q=0.5}", "sched latency p50", ms},
		{"mp_runtime_sched_latency_seconds{q=0.99}", "sched latency p99", ms},
	}
	var rows []runtimeRow
	for _, s := range specs {
		if v, ok := snap[s.key]; ok {
			rows = append(rows, runtimeRow{Name: s.label, Value: s.format(v)})
		}
	}
	return rows
}

// cacheRows snapshots the per-database result-cache statistics.
func (u *WebUI) cacheRows() []cacheRow {
	if u.env == nil {
		return nil
	}
	rows := make([]cacheRow, 0, len(u.env.caches))
	for _, c := range u.env.caches {
		hits, misses := c.cache.Stats()
		row := cacheRow{Database: c.name, Hits: hits, Misses: misses}
		if total := hits + misses; total > 0 {
			row.HitRate = 100 * float64(hits) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// webPage is the single-page template (no external assets: the tool
// must work offline).
const webPage = `<!DOCTYPE html>
<html><head><title>metaprobe</title><style>
body { font-family: system-ui, sans-serif; max-width: 60rem; margin: 2rem auto; padding: 0 1rem; }
input[type=text] { width: 24rem; padding: .4rem; }
table { border-collapse: collapse; margin: 1rem 0; }
td, th { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; }
.result { margin: .8rem 0; }
.db { color: #567; font-size: .85em; }
.snippet { color: #333; }
.err { color: #a00; }
.meta { color: #666; font-size: .9em; }
.track { width: 22rem; position: relative; }
.bar { height: .65em; background: #68a; border-radius: 2px; }
.errbar { background: #a33; }
.wf td { border: none; border-bottom: 1px solid #eee; font-size: .85em; white-space: nowrap; }
</style></head><body>
<h1>metaprobe</h1>
<p class="meta">probabilistic metasearch over {{len .Databases}} Hidden-Web databases
(Liu, Luo, Cho, Chu — ICDE 2004)</p>
{{if .Model.Trained}}<p class="meta">serving model v{{.Model.Version}} ({{.Model.Source}})
{{- if .Model.Refresh}} · {{.Model.Refresh.Refreshes}} online refreshes, {{.Model.Refresh.Rollbacks}} rollbacks{{end}}
· details at <a href="/debug/model">/debug/model</a></p>{{end}}
<form method="GET" action="/">
<input type="text" name="q" value="{{.Query}}" placeholder="breast cancer" autofocus>
k=<input type="number" name="k" value="{{.K}}" min="1" style="width:3rem">
certainty=<input type="number" name="t" value="{{.T}}" min="0" max="1" step="0.05" style="width:4rem">
<button type="submit">Search</button>
</form>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
{{if .Ran}}{{if .Selection}}
<p class="meta">selected <b>{{range $i, $d := .Selection.Databases}}{{if $i}}, {{end}}{{$d}}{{end}}</b>
with certainty {{printf "%.3f" .Selection.Certainty}} after {{.Selection.Probes}} probes
({{.Elapsed}}{{if not .Selection.Reached}}; requested certainty not reachable{{end}})
{{if .Audited}}· audited correctness {{printf "%.3f" .Realized}}{{end}}</p>
{{range .Items}}
<div class="result">
<div><b>{{.Doc.ID}}</b> <span class="db">{{.Database}} · score {{printf "%.3f" .Score}}</span></div>
<div class="snippet">{{.Snippet}}</div>
</div>
{{else}}<p>No results.</p>{{end}}
{{if .Waterfall}}
<h3>Selection waterfall</h3>
<p class="meta">trace <a href="/debug/spans?trace={{.TraceID}}">{{.TraceID}}</a>
{{- if .Cost}} · {{.Cost.ProbesIssued}} probes, {{.Cost.HedgesWasted}} wasted hedges,
{{.Cost.CacheHits}} cache hits, {{.Cost.BytesFetched}} bytes fetched{{end}}</p>
<table class="wf">{{range .Waterfall}}<tr>
<td style="padding-left:{{printf "%.1f" .Indent}}rem">{{.Name}}{{if .Detail}} <span class="db">{{.Detail}}</span>{{end}}</td>
<td>{{printf "%.1f" .DurationMs}} ms</td>
<td class="track"><div class="bar{{if .Err}} errbar{{end}}" style="margin-left:{{printf "%.2f" .LeftPct}}%;width:{{printf "%.2f" .WidthPct}}%"></div></td>
</tr>{{end}}</table>
{{end}}
{{if .Explain}}
<h3>Why these databases?</h3>
<table><tr><th>database</th><th>estimate r̂</th><th>E[relevancy]</th><th>P(top-k)</th><th>query type</th></tr>
{{range .Explain}}<tr><td>{{.Database}}</td><td>{{printf "%.1f" .Estimate}}</td>
<td>{{printf "%.1f" .ExpectedRelevancy}}</td><td>{{printf "%.3f" .MembershipProb}}</td>
<td>{{.QueryType}}</td></tr>{{end}}
</table>
{{end}}
{{if .Calibration}}{{if .Calibration.Samples}}
<h3>Certainty calibration</h3>
<p class="meta">{{.Calibration.Samples}} audited selections · Brier {{printf "%.3f" .Calibration.Brier}}
· ECE {{printf "%.3f" .Calibration.ECE}} · mean gap {{printf "%+.3f" .Calibration.Gap}}
(observed − predicted; details at <a href="/debug/calibration">/debug/calibration</a>)</p>
<table><tr><th>certainty bin</th><th>selections</th><th>mean predicted</th><th>mean observed</th><th>gap</th></tr>
{{range .Calibration.Bins}}{{if .Count}}<tr><td>{{printf "%.1f–%.1f" .Lo .Hi}}</td><td>{{.Count}}</td>
<td>{{printf "%.3f" .MeanPredicted}}</td><td>{{printf "%.3f" .MeanObserved}}</td>
<td>{{printf "%+.3f" .Gap}}</td></tr>{{end}}{{end}}
</table>
{{end}}{{end}}
{{if .Caches}}
<h3>Result caches</h3>
<table><tr><th>database</th><th>hits</th><th>misses</th><th>hit rate</th></tr>
{{range .Caches}}<tr><td>{{.Database}}</td><td>{{.Hits}}</td><td>{{.Misses}}</td>
<td>{{printf "%.1f%%" .HitRate}}</td></tr>{{end}}
</table>
<p class="meta">full metrics at <a href="/metrics">/metrics</a>; recent requests, one span tree each, at
<a href="/debug/spans">/debug/spans</a>;
SLO burn rates at <a href="/debug/slo">/debug/slo</a>; profiles at <a href="/debug/pprof/">/debug/pprof</a></p>
{{end}}{{end}}{{end}}
{{if .Runtime}}
<h3>Runtime telemetry</h3>
<table><tr>{{range .Runtime}}<th>{{.Name}}</th>{{end}}</tr>
<tr>{{range .Runtime}}<td>{{.Value}}</td>{{end}}</tr></table>
<p class="meta">continuous profiles at <a href="/debug/profiles">/debug/profiles</a>
(<a href="/debug/profiles?latest=cpu">latest cpu</a>, <a href="/debug/profiles?latest=heap">latest heap</a>);
goroutine dump at <a href="/debug/goroutines">/debug/goroutines</a>;
per-stage selection timing in <a href="/metrics">/metrics</a> (mp_selection_stage_seconds)</p>
{{end}}
</body></html>`
