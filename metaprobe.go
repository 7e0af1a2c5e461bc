// Package metaprobe is a metasearcher for Hidden-Web databases with
// probabilistic database selection and adaptive probing, reproducing
//
//	Liu, Luo, Cho, Chu. "A Probabilistic Approach to Metasearching
//	with Adaptive Probing." ICDE 2004.
//
// A metasearcher mediates many keyword-searchable document databases.
// Given a query, it must pick the k most relevant databases without
// contacting all of them. metaprobe does this in three tiers:
//
//   - Baseline: rank databases by the classic term-independence
//     estimate computed from local content summaries (Eq. 1 of the
//     paper) — fast, but often wrong because query terms are
//     correlated differently in different databases.
//   - RD-based: model each database's estimation error as a learned
//     per-query-type distribution and select the set with the highest
//     expected correctness — substantially more accurate at the same
//     (zero) query-time cost.
//   - Adaptive probing: when the expected correctness is below a
//     user-required certainty level, issue the live query to a few
//     carefully chosen databases until the certainty is met.
//
// # Quick start
//
//	dbs := []metaprobe.Database{ ... }                  // your sources
//	sums, _ := metaprobe.ExactSummaries(dbs)            // or SampleSummaries
//	ms, _ := metaprobe.New(dbs, sums, nil)
//	_ = ms.Train(trainingQueries)                       // learn error model
//	res, _ := ms.SelectWithCertainty("breast cancer", 2, metaprobe.Absolute, 0.9, -1)
//	fmt.Println(res.Databases, res.Certainty)
//
// See the examples/ directory for complete programs.
package metaprobe

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"metaprobe/internal/core"
	"metaprobe/internal/estimate"
	"metaprobe/internal/fusion"
	"metaprobe/internal/hidden"
	"metaprobe/internal/modelhost"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
	"metaprobe/internal/probeexec"
	"metaprobe/internal/queries"
	"metaprobe/internal/refresh"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
	"metaprobe/internal/textindex"
)

// Re-exported types: the public API is the root package; internal
// packages provide the implementation.
type (
	// Database is the search interface of one Hidden-Web database.
	Database = hidden.Database
	// Result is a database's answer page.
	Result = hidden.Result
	// DocSummary is one ranked document on an answer page.
	DocSummary = hidden.DocSummary
	// Summary is a database's content summary ((term, df) statistics).
	Summary = summary.Summary
	// Relevancy is a database-relevancy definition with its estimator.
	Relevancy = estimate.Relevancy
	// Metric selects absolute or partial correctness.
	Metric = core.Metric
	// MergedResult is one fused result document.
	MergedResult = fusion.Item
	// Metrics is a concurrency-safe metrics registry (counters, gauges,
	// latency histograms with p50/p90/p99 snapshots) with Prometheus
	// text-format exposition. See Config.Metrics.
	Metrics = obs.Registry
	// SpanTracer records hierarchical request spans with a bounded
	// in-memory store and OTLP-compatible JSON export. See Config.Spans
	// and NewSpanTracer; span.Handler serves /debug/spans.
	SpanTracer = span.Tracer
	// Span is one recorded span (exported for waterfall rendering).
	Span = span.Span
	// DriftStatus is the state of one monitored (database, query type).
	DriftStatus = modelhost.DriftStatus
	// RefreshStats are the refresher's lifetime counters. See
	// Metasearcher.RefreshStats.
	RefreshStats = refresh.Stats
	// RefreshValidation is one refresh task's holdout audit: the old and
	// new models' prediction errors and whether the candidate shipped.
	RefreshValidation = refresh.Validation
)

// NewMetrics returns an empty metrics registry for Config.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewSpanTracer returns a span tracer with a bounded in-memory store
// of capacity spans (≤ 0 defaults to 8192; the oldest spans are
// evicted and counted once full) for Config.Spans.
func NewSpanTracer(capacity int) *SpanTracer { return span.NewTracer(capacity) }

// Correctness metrics (Section 3.2 of the paper).
const (
	// Absolute correctness: the selected set must equal the true top-k.
	Absolute = core.Absolute
	// Partial correctness: credit for the overlap with the true top-k.
	Partial = core.Partial
)

// Config tunes a Metasearcher; the zero value (or nil) gives the
// paper's defaults for document-frequency relevancy.
type Config struct {
	// Relevancy is the relevancy definition (default: document
	// frequency with the term-independence estimator).
	Relevancy Relevancy
	// Model is the error-model training configuration.
	Model core.Config
	// OnlineRefinement feeds every live probe back into the error
	// model (the paper's future-work direction): probes double as free
	// training samples, so the model tracks database drift. With or
	// without it and Drift, an answer that is not a finite relevancy ≥ 0
	// is a failed probe that no ED or drift window sees.
	OnlineRefinement bool
	// Metrics, when non-nil, receives selection and probe metrics
	// (selection latency quantiles, probe counters per database,
	// certainty outcomes). Nil — the default — disables metric
	// recording entirely; the only cost left on the selection path is
	// one pointer comparison.
	Metrics *Metrics
	// Drift enables online drift detection on the learned error
	// distributions: every live probe's fresh error feeds a sliding
	// window of the last 64 per (database, query type), KS-tested
	// against the trained ED at the 32nd observation and every 16th
	// after it; a p-value under 0.005 is an alert. Statistics surface
	// through Metrics (mp_ed_drift_* series) and DriftStatuses, and
	// alerts go to the background refresher when RefreshQueries is set.
	// Detection starts once Train (or NewFromModel) has produced a
	// model; false — the default — keeps the probe path free of drift
	// bookkeeping. A failed probe (see OnlineRefinement) enters no window.
	Drift bool
	// RefreshQueries, when non-nil, starts a background refresher and
	// supplies its probe queries: up to n workload-like queries of
	// numTerms terms. With Drift it closes the loop automatically: every
	// alert re-probes the drifted (database, query type) with at most
	// 96 probes, rebuilds its error distribution, validates the candidate
	// on a quarter of those probes held out, and hot-swaps it in — or
	// rolls it back when it fits the holdout worse by more than 0.1 nats.
	// Refresh probes run through the same probe slots and circuit
	// breakers as live selections, so refresh traffic cannot starve
	// serving. Call Metasearcher.Close to stop the background worker.
	RefreshQueries func(numTerms, n int) []string
	// ProbeTimeout caps each probe end to end; a timed-out probe counts
	// as a backend failure. 0 leaves probes bounded only by the caller's
	// context. Whatever it is, at most 16 probes are in flight at once
	// across every selection, and a backend that fails 5 probes in a row
	// is skipped for 30 s (its selections degrade gracefully instead of
	// waiting on a dead backend), then tried once.
	ProbeTimeout time.Duration
	// Spans, when non-nil, records a span tree for every selection —
	// the one per-request record. The root "selection" span carries
	// the call and its answer as attributes (id, query, k, metric,
	// threshold, estimates — r̂ per database as a JSON object in
	// testbed order —, initial_certainty, selected, certainty, probes,
	// reached, degraded), one "step" event per folded probe (db,
	// usefulness, value, certainty_after, error) and one "stage" event
	// per pipeline stage; each probe is a "probe" span below it, with
	// its breaker transitions and, from an HTTP backend, the answer
	// page's status and size as events. Floats are written with
	// strconv.FormatFloat(v, 'g', -1, 64), so they parse back exactly.
	// Retrieve a tree by trace ID (SpanTracer.Tree, or
	// /debug/spans?trace=<id>); the trace ID is reported on
	// SelectionResult.TraceID. Nil — the default — keeps the selection
	// path span-free.
	Spans *SpanTracer
}

// observed reports whether any per-selection observability sink is
// configured.
func (c *Config) observed() bool {
	return c.Metrics != nil || c.Spans != nil
}

// DocFrequencyRelevancy returns the paper's default relevancy: number
// of matching documents, estimated by term independence (Eq. 1).
func DocFrequencyRelevancy() Relevancy { return estimate.NewDocFrequency() }

// DocSimilarityRelevancy returns the alternative definition of Section
// 2.1: best-document cosine similarity, estimated GlOSS-style. Pair it
// with SimilarityModelConfig.
func DocSimilarityRelevancy() Relevancy { return estimate.NewDocSimilarity() }

// SimilarityModelConfig returns the training configuration suited to
// cosine relevancy values in [0, 1].
func SimilarityModelConfig() core.Config { return core.SimilarityConfig() }

// Metasearcher mediates a set of databases: it estimates, selects, and
// probes on behalf of user queries, and fuses the final results.
type Metasearcher struct {
	tb   *hidden.Testbed
	sums *summary.Set
	rel  Relevancy
	cfg  Config
	// host owns the serving model: pointer, writers' lock, drift windows
	// (internal/modelhost). Selections read it through a View and take no
	// lock; Train, ReloadModel, probe feedback and the online refresher
	// go through its writer methods, so a swap never blocks a selection.
	host *modelhost.Host
	// refresher retrains drifted EDs in the background (nil unless
	// cfg.RefreshQueries is set).
	refresher *refresh.Refresher
	// observed caches cfg.observed(): the one test the selection path
	// makes before it reads the clock, numbers the selection, opens a
	// span or turns the selection's stage tally on.
	observed bool
	// series are the selection path's metric series in cfg.Metrics,
	// resolved once; nil without a registry.
	series *selectionSeries
	// exec runs every live probe: probe slots, circuit breakers,
	// background probes (internal/probeexec). dbName is the
	// index → backend-name mapping it accounts by, a lookup in the host's
	// name slice built once; dbKey is the same name as a JSON object key
	// (`"name":`), for the root span's estimates attribute.
	exec   *probeexec.Executor
	dbName func(i int) string
	dbKey  []string
	// selSeq numbers selections for trace/log correlation IDs.
	selSeq atomic.Int64
	// shells recycles finished *core.Selection shells: FillSelection
	// rewrites every field of whatever shell it is handed, so a warm one
	// (derived buffers, owned impulses) makes the fill allocation-free.
	shells sync.Pool
}

// New builds a metasearcher over the given databases and their content
// summaries (one per database, in order). Selection beyond the
// baseline requires Train.
func New(dbs []Database, sums []*Summary, cfg *Config) (*Metasearcher, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("metaprobe: need at least one database")
	}
	if len(sums) != len(dbs) {
		return nil, fmt.Errorf("metaprobe: %d summaries for %d databases", len(sums), len(dbs))
	}
	tb, err := hidden.NewTestbed(dbs)
	if err != nil {
		return nil, fmt.Errorf("metaprobe: %w", err)
	}
	for i, s := range sums {
		if s == nil {
			return nil, fmt.Errorf("metaprobe: summary %d is nil", i)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("metaprobe: %w", err)
		}
	}
	c := Config{Model: core.DefaultConfig()}
	if cfg != nil {
		c = *cfg
	}
	if c.Relevancy == nil {
		c.Relevancy = estimate.NewDocFrequency()
	}
	names := make([]string, tb.Len())
	for i := range names {
		names[i] = tb.DB(i).Name()
	}
	m := &Metasearcher{
		tb:       tb,
		sums:     &summary.Set{Summaries: sums},
		rel:      c.Relevancy,
		cfg:      c,
		host:     modelhost.New(names, c.Drift, c.Metrics),
		observed: c.observed(),
		series:   registerSelectionMetrics(c.Metrics, tb),
		dbName:   func(i int) string { return names[i] },
		dbKey:    make([]string, len(names)),
		exec: probeexec.NewExecutor(probeexec.Config{
			ProbeTimeout: c.ProbeTimeout,
			Metrics:      c.Metrics,
		}),
	}
	for i, name := range names {
		key, _ := json.Marshal(name) // a string always marshals
		m.dbKey[i] = string(key) + ":"
	}
	c.Metrics.GaugeFunc("mp_decision_memo_nodes", nil, func() float64 {
		if v := m.host.View(); v.Trained() {
			nodes, _ := v.Memo()
			return float64(nodes)
		}
		return 0
	})
	if c.RefreshQueries != nil {
		m.refresher = refresh.New(refresh.Config{Queries: c.RefreshQueries, Metrics: c.Metrics, Spans: c.Spans},
			refreshHost{m.host, m})
	}
	return m, nil
}

// Close stops the background refresher (a no-op without
// Config.RefreshQueries). The metasearcher remains usable for selections;
// drift alerts arriving after Close are dropped.
func (m *Metasearcher) Close() {
	m.refresher.Stop()
}

// Databases returns the mediated database names in order.
func (m *Metasearcher) Databases() []string {
	return append([]string(nil), m.host.Names()...)
}

// Trained reports whether the error model has been learned.
func (m *Metasearcher) Trained() bool { return m.host.View().Trained() }

// Estimates returns r̂(db, q) for every database, in order.
func (m *Metasearcher) Estimates(query string) []float64 {
	// The serving model's summaries, which a reloaded snapshot brings
	// with it; the constructor's only before the first model.
	sums := m.sums.Summaries
	if v := m.host.View(); v.Trained() {
		sums = v.Summaries()
	}
	out := make([]float64, len(sums))
	for i := range out {
		out[i] = m.rel.Estimate(sums[i], query)
	}
	return out
}

// SelectBaseline returns the k databases with the highest estimated
// relevancy — the pre-paper state of the art, provided as the
// comparison point and as the fallback before Train.
func (m *Metasearcher) SelectBaseline(query string, k int) []string {
	return m.names(core.TopKByScore(m.Estimates(query), k))
}

// Select returns the k-set with the highest expected correctness under
// the probabilistic relevancy model, with no probing (the paper's
// RD-based method), along with that expected correctness.
func (m *Metasearcher) Select(query string, k int, metric Metric) ([]string, float64, error) {
	return m.SelectContext(context.Background(), query, k, metric)
}

// SelectContext is Select bounded by ctx: the adaptive loop with
// threshold 0, which its first evaluation always meets. The RD-based
// computation issues no probes and runs in microseconds, so the bound
// is a fail-fast check at entry, not a mid-flight cancellation point.
func (m *Metasearcher) SelectContext(ctx context.Context, query string, k int, metric Metric) ([]string, float64, error) {
	res, err := m.selectWithPolicyContext(ctx, query, k, metric, 0, 0)
	return res.Databases, res.Certainty, err
}

// SelectionResult reports an adaptive-probing selection.
type SelectionResult struct {
	// ID is the selection's correlation identifier ("sel-000042"),
	// shared with the root span's "id" attribute and intended for
	// structured logs. Empty when no observability sink (Metrics or
	// Spans) is configured (the disabled path allocates nothing).
	ID string
	// Databases are the selected database names (testbed order).
	Databases []string
	// Certainty is the expected correctness of the answer.
	Certainty float64
	// Probes is the number of live probes spent.
	Probes int
	// ProbeFailures is the number of probes that failed and excluded
	// their database. A selection can reach the certainty even after
	// failures; this surfaces that it ran degraded.
	ProbeFailures int
	// Reached reports whether the requested certainty was met.
	Reached bool
	// Degraded reports that one or more backends were excluded from
	// the selection (probe failure or open circuit breaker), so the
	// answer was computed over a reduced testbed.
	Degraded bool
	// ExcludedDBs names the excluded backends (testbed order) when
	// Degraded is set.
	ExcludedDBs []string
	// TraceID identifies the selection's span tree, set when
	// Config.Spans is configured (retrieve it via SpanTracer.Tree or
	// /debug/spans?trace=<id>). Empty otherwise.
	TraceID string
}

// SelectWithCertainty is SelectWithCertaintyContext without
// cancellation.
func (m *Metasearcher) SelectWithCertainty(query string, k int, metric Metric, t float64, maxProbes int) (*SelectionResult, error) {
	return m.SelectWithCertaintyContext(context.Background(), query, k, metric, t, maxProbes)
}

// SelectWithCertaintyContext runs the paper's APro algorithm: select k
// databases whose expected correctness meets the user-required
// certainty t, probing as few databases as possible (greedy usefulness
// policy). maxProbes < 0 leaves probing unbounded. Even when the
// certainty cannot be reached (probes exhausted), the best available
// set is returned with Reached=false.
//
// Probes run through the probe-execution engine, under its bound on
// probes in flight, its circuit breakers and Config.ProbeTimeout (see
// there). Against backends much
// slower than a rank the loop starts the next probe early whenever every
// outcome of the one in flight picks it (core.Overlapper), which costs
// no extra probe. Cancelling ctx abandons the selection.
//
// Failures degrade instead of erroring: a backend whose probe fails or
// answers no finite relevancy ≥ 0, or whose breaker is open, is treated
// as serving nothing for this query and excluded, and the result
// reports Degraded/ExcludedDBs.
func (m *Metasearcher) SelectWithCertaintyContext(ctx context.Context, query string, k int, metric Metric, t float64, maxProbes int) (*SelectionResult, error) {
	res, err := m.selectWithPolicyContext(ctx, query, k, metric, t, maxProbes)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// selectWithPolicyContext is the one selection body behind every
// Select* entry point. It returns the result by value so that Select,
// which hands back only the set and its certainty, allocates none.
func (m *Metasearcher) selectWithPolicyContext(ctx context.Context, query string, k int, metric Metric, t float64, maxProbes int) (SelectionResult, error) {
	if err := ctx.Err(); err != nil {
		return SelectionResult{}, err
	}
	// A threshold no certainty can meet (NaN compares false with
	// everything) would probe every database: the caller's mistake, so
	// it is refused before any sink sees a selection.
	if !(t >= 0 && t <= 1) {
		return SelectionResult{}, fmt.Errorf("metaprobe: certainty threshold %v outside [0,1]", t)
	}
	// Root span, clock and stage tally exist together or not at all. The
	// span tree nests every probe below "selection", which makes it the
	// selection's record of what its probes cost. The span opens before
	// the selection state is built so the rd_convolve stage — deriving
	// every database's RD — is inside the root span's window, and the
	// per-stage totals attached as events sum to ≈ the span's duration.
	var (
		start time.Time
		sp    *span.Span
	)
	if m.observed {
		start = time.Now()
		ctx, sp = m.cfg.Spans.Start(ctx, "selection")
		if sp != nil { // formatting the attributes allocates
			sp.SetAttr("query", query)
			sp.SetAttr("k", strconv.Itoa(k))
			sp.SetAttr("metric", metric.String())
			sp.SetAttr("threshold", formatFloat(t))
		}
	}
	sel, _, err := m.selection(query, metric, k, m.observed)
	if err != nil {
		sp.EndErr(err)
		return SelectionResult{}, err
	}
	numTerms := countTerms(query)
	probe := func(ctx context.Context, i int) (float64, error) {
		v, err := m.probe(ctx, i, query)
		if err == nil {
			err = m.probeFeedback(i, query, numTerms, v)
		}
		return v, err
	}
	res, err := m.exec.APro(ctx, sel, m.dbName, probe, core.Greedy{}, t, maxProbes)
	if err != nil {
		sp.EndErr(err)
		return SelectionResult{}, fmt.Errorf("metaprobe: %w", err)
	}
	out := SelectionResult{
		TraceID:       sp.Trace(),
		Databases:     m.names(res.Set),
		Certainty:     res.Certainty,
		Probes:        res.Probes(),
		ProbeFailures: len(res.ProbeErrs),
		Reached:       res.Reached,
		Degraded:      res.Degraded,
		ExcludedDBs:   m.names(res.Excluded),
	}
	if m.observed {
		out.ID = fmt.Sprintf("sel-%06d", m.selSeq.Add(1))
		m.observe(&out, sp, sel, &res, start)
	}
	m.recycleSelection(sel)
	return out, nil
}

// Metasearch is MetasearchContext without cancellation.
func (m *Metasearcher) Metasearch(query string, k int, metric Metric, t float64, resultSize int) ([]MergedResult, *SelectionResult, error) {
	return m.MetasearchContext(context.Background(), query, k, metric, t, resultSize)
}

// MetasearchContext performs the full pipeline of the paper's Figure 1
// under ctx: select k databases with certainty t (see
// SelectWithCertaintyContext for the selection semantics), forward the
// query to them, and fuse the per-database results into one ranked list
// of resultSize documents. When Config.Spans is set the whole pipeline
// records one trace: a root "metasearch" span with the selection and
// each per-database result fetch as children, so a slow answer can be
// broken down into selection versus fetch time on the waterfall.
func (m *Metasearcher) MetasearchContext(ctx context.Context, query string, k int, metric Metric, t float64, resultSize int) ([]MergedResult, *SelectionResult, error) {
	ctx, sp := m.cfg.Spans.Start(ctx, "metasearch")
	sp.SetAttr("query", query)
	selRes, err := m.SelectWithCertaintyContext(ctx, query, k, metric, t, -1)
	if err != nil {
		sp.EndErr(err)
		return nil, nil, err
	}
	items, err := m.fuse(ctx, query, selRes, resultSize)
	sp.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	return items, selRes, nil
}

// fuse forwards the query to the selected databases under ctx and
// merges their answer pages into one ranked list, enriched with
// query-centered snippets where document text is fetchable.
func (m *Metasearcher) fuse(ctx context.Context, query string, selRes *SelectionResult, resultSize int) ([]MergedResult, error) {
	perDB := resultSize
	if perDB < 10 {
		perDB = 10
	}
	var lists []fusion.SourceList
	for _, name := range selRes.Databases {
		db := m.tb.DB(m.tb.IndexOf(name))
		res, err := db.SearchContext(ctx, query, perDB)
		if err != nil {
			// A database that fails at fetch time contributes nothing;
			// selection already paid its certainty cost.
			continue
		}
		lists = append(lists, fusion.SourceList{
			Database: name,
			Weight:   float64(res.MatchCount) + 1,
			Docs:     res.Docs,
		})
	}
	items, err := fusion.WeightedMerge(lists, resultSize)
	if err != nil {
		return nil, fmt.Errorf("metaprobe: %w", err)
	}
	for i := range items {
		if ctx.Err() != nil {
			// The caller has gone: the merged list stands as it is.
			break
		}
		f, ok := m.tb.DB(m.tb.IndexOf(items[i].Database)).(hidden.Fetcher)
		if !ok {
			continue
		}
		text, err := f.Fetch(ctx, items[i].Doc.ID)
		if err != nil {
			continue
		}
		items[i].Snippet = textindex.Snippet(text, query, 16, true)
	}
	return items, nil
}

// selection builds the per-query state from the serving version's
// precomputed RD table: a recycled shell is refilled in place by
// View.Fill — table lookups plus an estimate shift per database
// instead of re-convolving every ED. No lock: the view is taken once and
// the fill reads only what a version never changes, so a version
// published meanwhile does not affect this selection. It also returns
// the view the selection was filled from.
//
// timed turns the selection's stage tally on, with the fill charged to
// the rd_convolve stage: it has shrunk to lookup cost, not disappeared
// from the waterfall. The APro loop tallies the remaining stages.
func (m *Metasearcher) selection(query string, metric Metric, k int, timed bool) (*core.Selection, modelhost.View, error) {
	view := m.host.View()
	if !view.Trained() {
		return nil, view, fmt.Errorf("metaprobe: model not trained; call Train first or use SelectBaseline")
	}
	if k <= 0 || k > m.tb.Len() {
		return nil, view, fmt.Errorf("metaprobe: k=%d outside [1, %d]", k, m.tb.Len())
	}
	var fillStart time.Time
	if timed {
		fillStart = time.Now()
	}
	shell, _ := m.shells.Get().(*core.Selection) // nil when the pool is empty
	sel := view.Fill(shell, query, countTerms(query), metric, k)
	if timed {
		sel.TimeStages(time.Since(fillStart))
	}
	return sel, view, nil
}

// recycleSelection releases sel's pooled scratch and hands the shell
// back for the next selection. Callers must not touch sel afterwards.
func (m *Metasearcher) recycleSelection(sel *core.Selection) {
	sel.Release()
	m.shells.Put(sel)
}

// countTerms counts whitespace-separated terms without allocating; it
// matches len(strings.Fields(q)) — fields split on unicode.IsSpace —
// which the serving paths previously paid one slice allocation per
// query for.
func countTerms(q string) int {
	n := 0
	inField := false
	for _, r := range q {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	return n
}

// names maps database indices to names.
func (m *Metasearcher) names(set []int) []string {
	out := make([]string, len(set))
	for i, idx := range set {
		out[i] = m.dbName(idx)
	}
	return out
}

// parseQueries converts query strings into the internal representation,
// rejecting empties.
func parseQueries(qs []string) ([]queries.Query, error) {
	out := make([]queries.Query, 0, len(qs))
	for i, q := range qs {
		terms := strings.Fields(q)
		if len(terms) == 0 {
			return nil, fmt.Errorf("metaprobe: query %d is empty", i)
		}
		out = append(out, queries.Query{Terms: terms})
	}
	return out, nil
}

// Explanation describes why the metasearcher ranks databases the way
// it does for one query.
type Explanation struct {
	// Database is the database's name.
	Database string
	// Estimate is r̂(db, q) from the summary (Eq. 1).
	Estimate float64
	// ExpectedRelevancy is the mean of the database's relevancy
	// distribution after error correction.
	ExpectedRelevancy float64
	// MembershipProb is P(db ∈ true top-k) under the model.
	MembershipProb float64
	// QueryType is the decision-tree leaf the query fell into for this
	// database ("2-term/high", ...).
	QueryType string
}

// Explain returns per-database diagnostics for a query: the raw
// estimate, the error-corrected expected relevancy, and the membership
// probability that drives selection. Requires a trained model.
func (m *Metasearcher) Explain(query string, k int) ([]Explanation, error) {
	sel, view, err := m.selection(query, Absolute, k, false)
	if err != nil {
		return nil, err
	}
	marginals := sel.Marginals()
	numTerms := countTerms(query)
	out := make([]Explanation, m.tb.Len())
	for i := range out {
		rhat := sel.Estimate(i)
		out[i] = Explanation{
			Database:          m.dbName(i),
			Estimate:          rhat,
			ExpectedRelevancy: sel.RD(i).Mean(),
			MembershipProb:    marginals[i],
			QueryType:         view.Classify(numTerms, rhat).String(),
		}
	}
	m.recycleSelection(sel)
	return out, nil
}

// NewLocalDatabase builds an in-process database from raw documents
// (ID → text). It implements Database, Sizer and Fetcher.
func NewLocalDatabase(name string, docs map[string]string) Database {
	ix := textindex.NewIndex()
	local := hidden.NewLocal(name, ix)
	// Deterministic insertion order: sort IDs.
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ix.AddTerms(id, textindex.Tokenize(docs[id]))
		local.StoreText(docs[id])
	}
	ix.Compact()
	return local
}

// NewHTTPDatabase returns a client for a remote database serving the
// metaprobe answer page at baseURL (see hidden.Server), which it
// scrapes for the match count and the ranked documents.
func NewHTTPDatabase(name, baseURL string) Database {
	return hidden.NewClient(name, baseURL)
}

// ExactSummaries builds exact content summaries for databases that are
// in-process (created by NewLocalDatabase or the corpus builder). It
// fails for remote databases — sample those with SampleSummaries.
func ExactSummaries(dbs []Database) ([]*Summary, error) {
	out := make([]*Summary, len(dbs))
	for i, db := range dbs {
		local, ok := db.(*hidden.Local)
		if !ok {
			return nil, fmt.Errorf("metaprobe: database %s is not local; use SampleSummaries", db.Name())
		}
		out[i] = summary.FromLocal(local)
	}
	return out, nil
}

// SampleSummaries builds content summaries through the databases'
// public search interfaces by query-based sampling: probe with seed
// words, fetch top documents, and accumulate term statistics. Works
// for any database implementing document fetching (including the HTTP
// client).
func SampleSummaries(dbs []Database, seedTerms []string, numQueries int, seed int64) ([]*Summary, error) {
	out := make([]*Summary, len(dbs))
	rng := stats.NewRNG(seed)
	for i, db := range dbs {
		s, err := summary.Sample(db, summary.SampleConfig{
			SeedTerms:  seedTerms,
			NumQueries: numQueries,
		}, rng.Fork(int64(i)))
		if err != nil {
			return nil, fmt.Errorf("metaprobe: %w", err)
		}
		out[i] = s
	}
	return out, nil
}
