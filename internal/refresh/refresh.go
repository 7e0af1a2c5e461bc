// Package refresh closes the drift loop: it consumes error-distribution
// drift alerts (raised by internal/modelhost) and retrains the affected
// (database, query type) error distributions online, following the
// paper's Section 4 training procedure — probe the database with
// workload-like queries and accumulate the fresh estimation errors —
// but under a bounded probe budget routed through the host's
// probe-execution lane, so refresh traffic can never starve live
// selections.
//
// A refresh never mutates the serving model. It works from a private
// copy of the one drifted ED, trains a replacement from fresh probes,
// validates it against a holdout slice of those probes (the
// replacement's distributional fit must not regress by more than
// maxRegression), and asks the host to publish it with one atomic
// pointer swap — or discards it and counts a rollback.
package refresh

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/estimate"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
	"metaprobe/internal/summary"
)

const (
	// probeBudget caps the live probes one refresh task may spend. The
	// budget bounds the *cost* of reacting to an alert; the host's probe
	// pool bounds its *concurrency impact*.
	probeBudget = 96
	// minProbes is the minimum number of successful probes required to
	// rebuild an ED; tasks that cannot gather that many matching
	// observations abort without touching the model.
	minProbes = 16
	// holdoutEvery holds out every Nth probe for validation instead of
	// training: a 25% holdout slice.
	holdoutEvery = 4
	// maxRegression is the allowed validation regression: the
	// candidate's holdout score (mean negative log-likelihood, nats —
	// see holdoutScore) may exceed the serving model's by at most this
	// much before the refresh rolls back.
	maxRegression = 0.1
	// cooldown suppresses re-refreshing one (database, query type) for
	// this long after an attempt, absorbing the detector's periodic
	// re-alerts while fresh post-refresh samples accumulate.
	cooldown = time.Minute
	// queueSize bounds the pending-alert queue; alerts beyond it are
	// dropped and counted.
	queueSize = 64
	// concurrency bounds the refresh probes in flight for one task, well
	// below the host pool's global limit, so a refresh only ever nibbles
	// at serving capacity.
	concurrency = 2
	// taskTimeout bounds one refresh task end to end.
	taskTimeout = 2 * time.Minute
)

// Config wires a Refresher to its query source and sinks.
type Config struct {
	// Queries supplies up to n candidate probe queries with the given
	// term count, workload-like (the paper trains on queries resembling
	// future traffic). Required: a Refresher without a query source
	// aborts every task.
	Queries func(numTerms, n int) []string
	// Metrics receives mp_refresh_* series; nil disables them.
	Metrics *obs.Registry
	// Spans, when non-nil, records a span tree per refresh task
	// (refresh → probe/validate/commit stages, with the host's probe
	// spans nested below), so a model swap landing mid-selection can be
	// correlated with the selections it raced.
	Spans *span.Tracer
}

// Serving is what one refresh task works from: the parts of the serving
// model a task only reads, shared with it, and its own copy of the one
// ED it is about to replace.
type Serving struct {
	// Version is the serving model version the rest was read from.
	Version int64
	// Cfg and Rel are the model's training configuration and relevancy
	// definition; Summary is the alerted database's content summary.
	Cfg     core.Config
	Rel     estimate.Relevancy
	Summary *summary.Summary
	// ED is a private copy of the alerted (database, query type) ED, nil
	// when the model has none.
	ED *core.ED
}

// Host is what a Refresher needs from the metasearcher it maintains.
// Implementations must be safe for concurrent use.
type Host interface {
	// Serving returns the task's view of the serving model, its ED
	// copied under the host's model lock. It fails when there is no
	// serving model or dbIdx is not one of its databases.
	Serving(dbIdx int, key core.TypeKey) (Serving, error)
	// Probe issues one live training probe to database dbIdx through
	// the host's bounded probe-execution lane and returns the actual
	// relevancy.
	Probe(ctx context.Context, dbIdx int, query string) (float64, error)
	// Commit publishes the successor of baseVersion in which ed is
	// database dbIdx's ED for key — every other ED stays the serving
	// one — with one atomic swap and returns the new version number.
	// Hosts reject the commit (ErrSuperseded) when the serving version
	// is no longer baseVersion: ed was validated against a model that
	// has since been replaced.
	Commit(baseVersion int64, dbIdx int, key core.TypeKey, ed *core.ED) (int64, error)
}

// ErrSuperseded is returned by Host.Commit when the serving model
// changed under the refresh (e.g. an operator hot-reload).
var ErrSuperseded = fmt.Errorf("refresh: serving model changed during refresh")

// Alert names one drifted (database, query type).
type Alert struct {
	// DB is the database name (for spans and the validation record).
	DB string
	// DBIdx is the database's testbed index.
	DBIdx int
	// Key is the drifted query type.
	Key core.TypeKey
}

// Validation reports one refresh task's holdout audit.
type Validation struct {
	// DB and QueryType identify the refreshed key.
	DB        string `json:"db"`
	QueryType string `json:"queryType"`
	// OldScore and NewScore are the mean negative log-likelihoods
	// (nats) of the holdout observations under the serving and
	// candidate error distributions (lower is better).
	OldScore float64 `json:"oldScore"`
	NewScore float64 `json:"newScore"`
	// TrainSamples and HoldoutSamples count the probe observations on
	// each side of the split.
	TrainSamples   int `json:"trainSamples"`
	HoldoutSamples int `json:"holdoutSamples"`
	// ProbesSpent is the number of live probes the task issued
	// (successes and failures).
	ProbesSpent int `json:"probesSpent"`
	// Accepted reports whether the candidate was published.
	Accepted bool `json:"accepted"`
	// At is when the validation concluded.
	At time.Time `json:"at"`
}

// Stats is a point-in-time view of a Refresher's counters.
type Stats struct {
	// Queued, Coalesced, Cooldown and Dropped classify alert intake:
	// queued for work, coalesced into an already-queued task,
	// suppressed by cooldown, or dropped on a full queue.
	Queued    int64 `json:"queued"`
	Coalesced int64 `json:"coalesced"`
	Cooldown  int64 `json:"cooldown"`
	Dropped   int64 `json:"dropped"`
	// Refreshes counts published candidates; Rollbacks counts
	// candidates discarded by validation; Aborted counts tasks that
	// could not gather enough probes; Superseded counts commits
	// rejected because the serving model changed mid-task.
	Refreshes  int64 `json:"refreshes"`
	Rollbacks  int64 `json:"rollbacks"`
	Aborted    int64 `json:"aborted"`
	Superseded int64 `json:"superseded"`
	// ProbesSpent is the total live probes issued by refresh tasks.
	ProbesSpent int64 `json:"probesSpent"`
	// FailureStreak counts consecutive tasks that did not publish
	// (rollback, aborted or superseded); RollbackStreak counts
	// consecutive validation rollbacks specifically. Both reset on a
	// successful refresh. A persistent streak means the refresher is
	// wedged — serving a model it can no longer maintain — which
	// readiness checks surface (see Metasearcher.Ready).
	FailureStreak  int64 `json:"failureStreak"`
	RollbackStreak int64 `json:"rollbackStreak"`
	// LastError is the most recent non-publishing task's diagnostic,
	// cleared by the next successful refresh; LastErrorAt timestamps
	// it.
	LastError   string    `json:"lastError,omitempty"`
	LastErrorAt time.Time `json:"lastErrorAt"`
	// LastValidation is the most recent task's audit, nil before the
	// first task completes.
	LastValidation *Validation `json:"lastValidation,omitempty"`
}

// Refresher is the background model-maintenance worker. Create with
// New, feed with Alert (the facade wires every drift alert to it), stop
// with Stop. A nil *Refresher ignores alerts.
type Refresher struct {
	cfg  Config
	host Host

	ctx    context.Context
	cancel context.CancelFunc
	ch     chan Alert
	wg     sync.WaitGroup

	mu          sync.Mutex
	stopped     bool
	queued      map[Alert]bool
	lastAttempt map[Alert]time.Time
	stats       Stats
}

// New builds a Refresher over host and starts its worker goroutine.
func New(cfg Config, host Host) *Refresher {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Refresher{
		cfg:         cfg,
		host:        host,
		ctx:         ctx,
		cancel:      cancel,
		ch:          make(chan Alert, queueSize),
		queued:      make(map[Alert]bool),
		lastAttempt: make(map[Alert]time.Time),
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Help("mp_refresh_total", "Completed online model refreshes, by outcome (ok; rollback, validation regressed by more than 0.1 nats; aborted; superseded).")
		reg.Help("mp_refresh_probes_total", "Live probes spent by refresh tasks.")
		reg.Help("mp_refresh_alerts_total", "Drift alerts received, by intake decision (queued, coalesced, cooldown, dropped).")
		reg.Help("mp_refresh_duration_seconds", "End-to-end duration of refresh tasks.")
		for _, o := range []string{"ok", "rollback", "aborted", "superseded"} {
			reg.Counter("mp_refresh_total", obs.Labels{"outcome": o})
		}
	}
	r.wg.Add(1)
	go r.worker()
	return r
}

// Stop shuts the worker down and waits for any in-flight task. Alerts
// arriving after Stop are dropped.
func (r *Refresher) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.ch)
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}

// Alert enqueues one drifted key for retraining. Never blocks: alerts
// for a key already queued are coalesced, alerts inside the key's
// cooldown window are suppressed, and alerts beyond the queue capacity
// are dropped — all counted in Stats.
func (r *Refresher) Alert(a Alert) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		r.stats.Dropped++
		r.count("mp_refresh_alerts_total", "decision", "dropped")
		return
	}
	if r.queued[a] {
		r.stats.Coalesced++
		r.count("mp_refresh_alerts_total", "decision", "coalesced")
		return
	}
	if last, ok := r.lastAttempt[a]; ok && time.Since(last) < cooldown {
		r.stats.Cooldown++
		r.count("mp_refresh_alerts_total", "decision", "cooldown")
		return
	}
	select {
	case r.ch <- a:
		r.queued[a] = true
		r.stats.Queued++
		r.count("mp_refresh_alerts_total", "decision", "queued")
	default:
		r.stats.Dropped++
		r.count("mp_refresh_alerts_total", "decision", "dropped")
	}
}

// Stats snapshots the counters.
func (r *Refresher) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	if r.stats.LastValidation != nil {
		v := *r.stats.LastValidation
		out.LastValidation = &v
	}
	return out
}

// count bumps a labeled metric counter (nil-registry safe).
func (r *Refresher) count(name, label, value string) {
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Counter(name, obs.Labels{label: value}).Inc()
	}
}

// worker drains the alert queue, one task at a time.
func (r *Refresher) worker() {
	defer r.wg.Done()
	for a := range r.ch {
		r.mu.Lock()
		delete(r.queued, a)
		r.lastAttempt[a] = time.Now()
		r.mu.Unlock()
		r.runTask(a)
		if r.ctx.Err() != nil {
			// Drain remaining alerts without working them.
			for range r.ch {
			}
			return
		}
	}
}

// outcome is one task's terminal state.
type outcome string

const (
	outcomeOK         outcome = "ok"
	outcomeRollback   outcome = "rollback"
	outcomeAborted    outcome = "aborted"
	outcomeSuperseded outcome = "superseded"
)

// runTask executes one refresh end to end: re-probe, retrain, validate,
// commit or roll back.
func (r *Refresher) runTask(a Alert) {
	start := time.Now()
	out, val, err := r.refreshKey(a)
	elapsed := time.Since(start)

	r.mu.Lock()
	switch out {
	case outcomeOK:
		r.stats.Refreshes++
		r.stats.FailureStreak = 0
		r.stats.RollbackStreak = 0
		r.stats.LastError = ""
		r.stats.LastErrorAt = time.Time{}
	case outcomeRollback:
		r.stats.Rollbacks++
		r.stats.RollbackStreak++
	case outcomeAborted:
		r.stats.Aborted++
	case outcomeSuperseded:
		r.stats.Superseded++
	}
	if out != outcomeOK {
		r.stats.FailureStreak++
		if out != outcomeRollback {
			r.stats.RollbackStreak = 0
		}
		if err != nil {
			r.stats.LastError = err.Error()
			r.stats.LastErrorAt = time.Now()
		}
	}
	if val != nil {
		v := *val
		r.stats.LastValidation = &v
		r.stats.ProbesSpent += int64(val.ProbesSpent)
	}
	r.mu.Unlock()

	if reg := r.cfg.Metrics; reg != nil {
		reg.Counter("mp_refresh_total", obs.Labels{"outcome": string(out)}).Inc()
		if val != nil {
			reg.Counter("mp_refresh_probes_total", nil).Add(int64(val.ProbesSpent))
		}
		reg.Histogram("mp_refresh_duration_seconds", nil).Observe(elapsed.Seconds())
	}
}

// probePair is one fresh training observation.
type probePair struct {
	query  string
	terms  int
	rhat   float64
	actual float64
}

// refreshKey is the task body. It returns the outcome, the validation
// record when probing happened, and a diagnostic error for non-ok
// outcomes.
func (r *Refresher) refreshKey(a Alert) (out outcome, val *Validation, err error) {
	ctx, cancel := context.WithTimeout(r.ctx, taskTimeout)
	defer cancel()
	ctx, sp := r.cfg.Spans.Start(ctx, "refresh")
	sp.SetAttr("db", a.DB)
	sp.SetAttr("query_type", a.Key.String())
	defer func() {
		sp.SetAttr("outcome", string(out))
		sp.EndErr(err)
	}()

	base, err := r.host.Serving(a.DBIdx, a.Key)
	if err != nil {
		return outcomeAborted, nil, err
	}
	if r.cfg.Queries == nil {
		return outcomeAborted, nil, fmt.Errorf("refresh: no query source configured")
	}

	// Candidate queries that classify into the alerted key need no
	// probe to identify: classification is summary-only. Over-ask the
	// source since only a fraction lands in the key.
	raw := r.cfg.Queries(a.Key.Terms, 8*probeBudget)
	var cands []probePair
	seen := make(map[string]bool, len(raw))
	for _, q := range raw {
		if seen[q] {
			continue
		}
		seen[q] = true
		terms := len(strings.Fields(q))
		rhat := base.Rel.Estimate(base.Summary, q)
		if base.Cfg.Classifier.Classify(terms, rhat) != a.Key {
			continue
		}
		cands = append(cands, probePair{query: q, terms: terms, rhat: rhat})
		if len(cands) >= probeBudget {
			break
		}
	}
	if len(cands) < minProbes {
		return outcomeAborted, nil, fmt.Errorf("refresh: only %d workload queries classify as %s on %s (need %d)",
			len(cands), a.Key, a.DB, minProbes)
	}

	// Probe the candidates through the host's lane, bounded by
	// concurrency — the budget caps total cost, the pool caps impact.
	pctx, psp := span.Start(ctx, "refresh.probe")
	pairs, probesSpent := r.probeAll(pctx, a.DBIdx, cands)
	psp.SetAttr("probes", fmt.Sprint(probesSpent))
	psp.SetAttr("succeeded", fmt.Sprint(len(pairs)))
	psp.End()
	val = &Validation{
		DB: a.DB, QueryType: a.Key.String(),
		ProbesSpent: probesSpent, At: time.Now(),
	}
	if len(pairs) < minProbes {
		return outcomeAborted, val, fmt.Errorf("refresh: %d/%d probes succeeded (need %d)",
			len(pairs), probesSpent, minProbes)
	}

	// Deterministic interleaved split: every holdoutEvery-th pair is
	// held out for validation, the rest rebuild the ED.
	var train, holdout []probePair
	for i, p := range pairs {
		if i%holdoutEvery == holdoutEvery-1 {
			holdout = append(holdout, p)
		} else {
			train = append(train, p)
		}
	}
	if len(holdout) == 0 {
		holdout = train[:1]
	}
	val.TrainSamples, val.HoldoutSamples = len(train), len(holdout)

	// Score the serving distribution and the one retrained on the fresh
	// pairs on the same holdout.
	_, vsp := span.Start(ctx, "refresh.validate")
	val.OldScore = holdoutScore(base.ED, holdout)
	ed, err := trainED(base.Cfg, a, train)
	if err != nil {
		vsp.EndErr(err)
		return outcomeAborted, val, err
	}
	val.NewScore = holdoutScore(ed, holdout)
	vsp.SetAttr("old_score", fmt.Sprintf("%.4f", val.OldScore))
	vsp.SetAttr("new_score", fmt.Sprintf("%.4f", val.NewScore))

	if val.NewScore > val.OldScore+maxRegression {
		err := fmt.Errorf("refresh: candidate regressed on holdout: %.4f -> %.4f (gap %.4f allowed)",
			val.OldScore, val.NewScore, maxRegression)
		vsp.EndErr(err)
		return outcomeRollback, val, err
	}
	vsp.End()
	val.Accepted = true
	_, csp := span.Start(ctx, "refresh.commit")
	if _, err := r.host.Commit(base.Version, a.DBIdx, a.Key, ed); err != nil {
		val.Accepted = false
		csp.EndErr(err)
		if err == ErrSuperseded {
			return outcomeSuperseded, val, err
		}
		return outcomeAborted, val, err
	}
	csp.End()
	return outcomeOK, val, nil
}

// probeAll issues the candidates' probes with bounded concurrency and
// returns the successful observations (in candidate order) plus the
// total probes issued.
func (r *Refresher) probeAll(ctx context.Context, dbIdx int, cands []probePair) ([]probePair, int) {
	type slot struct {
		ok bool
		v  float64
	}
	results := make([]slot, len(cands))
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	issued := 0
	for i := range cands {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		issued++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			v, err := r.host.Probe(ctx, dbIdx, cands[i].query)
			if err == nil {
				results[i] = slot{ok: true, v: v}
			}
		}(i)
	}
	wg.Wait()
	out := make([]probePair, 0, len(cands))
	for i, res := range results {
		if res.ok {
			p := cands[i]
			p.actual = res.v
			out = append(out, p)
		}
	}
	return out, issued
}

// trainED trains the alerted key's ED from scratch on the fresh pairs —
// the paper's Section 4 procedure over post-drift data. The database's
// pooled ED is left alone: it is a long-run aggregate across all query
// types, and the serving fallback semantics expect it to change slowly.
func trainED(cfg core.Config, a Alert, train []probePair) (*core.ED, error) {
	ed, err := cfg.EDFor(a.Key)
	if err != nil {
		return nil, err
	}
	for _, p := range train {
		if err := ed.Observe(p.rhat, p.actual); err != nil {
			return nil, fmt.Errorf("refresh: retraining %s/%s: %w", a.DB, a.Key, err)
		}
	}
	return ed, nil
}

// holdoutScore is the validation measure: the mean negative
// log-likelihood, in nats, of the holdout error observations under the
// error distribution ed, with add-one smoothing across the
// histogram bins so unoccupied bins cost log(total+bins) rather than
// infinity. It scores distributional fit — how much probability the ED
// puts where fresh probes actually land — rather than point-prediction
// error: a point metric normalized by the actual relevancy is
// asymmetric (underestimates cost at most ~1 per pair, overestimates
// are unbounded), so against a heterogeneous holdout a stale model
// that underestimates a grown collection would outscore an honest
// retrain. Lower is better; a drifted ED scores badly because its mass
// sits in bins the fresh errors no longer occupy. No ED at all scores
// +Inf — any retrain beats serving nothing.
func holdoutScore(ed *core.ED, holdout []probePair) float64 {
	if ed == nil || ed.Observations() == 0 {
		return math.Inf(1)
	}
	h := ed.Hist
	total := float64(h.Total())
	bins := float64(h.Bins())
	var nll float64
	for _, p := range holdout {
		v := p.actual
		if !ed.Absolute {
			// In-key candidates always have rhat > 0: the zero band owns
			// rhat == 0, and classification gated them into this key.
			v = (p.actual - p.rhat) / p.rhat
		}
		c := float64(h.Counts[h.BinIndex(v)])
		nll -= math.Log((c + 1) / (total + bins))
	}
	return nll / float64(len(holdout))
}
