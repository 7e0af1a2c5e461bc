package refresh

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// harness is a small trained pipeline shared by the refresh tests.
type harness struct {
	model *core.Model
	tb    *hidden.Testbed
	rel   estimate.Relevancy
	pool  []queries.Query
}

func buildHarness(t *testing.T) *harness {
	t.Helper()
	w := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.02)[:4]
	tb, err := hidden.BuildTestbed(w, specs, 11)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := summary.BuildExact(tb)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(w, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	train, pool, err := gen.TrainTest(stats.NewRNG(31), 150, 150, 250, 250)
	if err != nil {
		t.Fatal(err)
	}
	rel := estimate.NewDocFrequency()
	cfg := core.DefaultConfig()
	// The paper's threshold of 100 suits web-scale collections; on this
	// small testbed nothing estimates that high, so lower the high-band
	// split to get populated high-band query types to drift.
	cfg.Classifier.Threshold = 0.1
	model, err := core.Train(tb, sums, rel, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{model: model, tb: tb, rel: rel, pool: pool}
}

// querySource serves workload-like queries from the held-out pool.
func (h *harness) querySource(numTerms, n int) []string {
	var out []string
	for _, q := range h.pool {
		if q.NumTerms() == numTerms {
			out = append(out, q.String())
			if len(out) >= n {
				break
			}
		}
	}
	return out
}

// alertFor picks a non-zero-band key on db 0 with enough held-out
// workload queries to refresh.
func (h *harness) alertFor(t *testing.T, minCands int) Alert {
	t.Helper()
	sum := h.model.Summaries.Summaries[0]
	counts := make(map[core.TypeKey]int)
	for _, q := range h.pool {
		rhat := h.rel.Estimate(sum, q.String())
		counts[h.model.Cfg.Classifier.Classify(q.NumTerms(), rhat)]++
	}
	best := core.TypeKey{}
	bestN := 0
	for key, n := range counts {
		// High-band keys have substantial estimates and relevancies, so
		// a simulated drift actually moves the numbers.
		if key.Band != core.BandHigh || n < minCands || n <= bestN {
			continue
		}
		if _, ok := h.model.DBs[0].EDs[key]; ok {
			best, bestN = key, n
		}
	}
	if bestN == 0 {
		t.Fatal("no suitable query type with enough workload queries")
	}
	return Alert{DB: h.model.DBs[0].Name, DBIdx: 0, Key: best}
}

// fakeHost implements Host over the harness. probeValue maps a probe
// to the "current" (possibly drifted) collection's answer; it receives
// the 0-based probe sequence number, the query, its estimate and the
// real undrifted relevancy.
type fakeHost struct {
	h          *harness
	probeValue func(call int, query string, rhat, real float64) (float64, error)

	mu      sync.Mutex
	version int64
	model   *core.Model
	calls   int
	commits int
	copies  int // EDs copied out for tasks
}

func newFakeHost(h *harness) *fakeHost {
	return &fakeHost{h: h, version: 1, model: h.model,
		probeValue: func(_ int, _ string, _, real float64) (float64, error) { return real, nil }}
}

func (f *fakeHost) Serving(dbIdx int, key core.TypeKey) (Serving, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if dbIdx < 0 || dbIdx >= len(f.model.DBs) {
		return Serving{}, fmt.Errorf("database index %d out of range", dbIdx)
	}
	s := Serving{Version: f.version, Cfg: f.model.Cfg, Rel: f.model.Rel, Summary: f.model.Summaries.Summaries[dbIdx]}
	if ed := f.model.DBs[dbIdx].EDs[key]; ed != nil {
		s.ED = ed.Clone()
		f.copies++
	}
	return s, nil
}

func (f *fakeHost) Probe(ctx context.Context, dbIdx int, query string) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	real, err := f.h.rel.Probe(f.h.tb.DB(dbIdx), query)
	if err != nil {
		return 0, err
	}
	rhat := f.h.rel.Estimate(f.h.model.Summaries.Summaries[dbIdx], query)
	f.mu.Lock()
	call := f.calls
	f.calls++
	f.mu.Unlock()
	return f.probeValue(call, query, rhat, real)
}

func (f *fakeHost) Commit(baseVersion int64, dbIdx int, key core.TypeKey, ed *core.ED) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if baseVersion != f.version {
		return 0, ErrSuperseded
	}
	next, err := f.model.WithED(dbIdx, key, ed)
	if err != nil {
		return 0, err
	}
	f.version++
	f.model = next
	f.commits++
	return f.version, nil
}

// waitTasks polls until n tasks reached a terminal state.
func waitTasks(t *testing.T, r *Refresher, n int64) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s := r.Stats()
		if s.Refreshes+s.Rollbacks+s.Aborted+s.Superseded >= n {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("refresh tasks did not finish: %+v", r.Stats())
	return Stats{}
}

// TestRefreshRetrainsDriftedKey drives the happy path: the collection
// drifts (probes now answer 3x the estimate — a new, consistent +200%
// error regime the stale ED has never seen), the candidate retrained
// on fresh probes beats the stale serving model on holdout, and the
// commit replaces only the alerted ED.
func TestRefreshRetrainsDriftedKey(t *testing.T) {
	h := buildHarness(t)
	host := newFakeHost(h)
	host.probeValue = func(_ int, _ string, rhat, _ float64) (float64, error) { return 3 * rhat, nil }
	alert := h.alertFor(t, 24)

	reg := obs.NewRegistry()
	r := New(Config{Queries: h.querySource, Metrics: reg}, host)
	defer r.Stop()

	beforeObs := h.model.DBs[0].EDs[alert.Key].Observations()
	otherKey := core.TypeKey{}
	for k := range h.model.DBs[0].EDs {
		if k != alert.Key {
			otherKey = k
			break
		}
	}

	r.Alert(alert)
	s := waitTasks(t, r, 1)
	if s.Refreshes != 1 || s.Rollbacks != 0 || s.Aborted != 0 {
		t.Fatalf("stats = %+v, want one accepted refresh", s)
	}
	v := s.LastValidation
	if v == nil || !v.Accepted {
		t.Fatalf("missing/unaccepted validation: %+v", v)
	}
	if v.NewScore >= v.OldScore {
		t.Errorf("retrained ED did not improve on holdout: old %.4f new %.4f", v.OldScore, v.NewScore)
	}
	if v.ProbesSpent > probeBudget {
		t.Errorf("task spent %d probes, budget %d", v.ProbesSpent, probeBudget)
	}
	if v.DB != alert.DB || v.QueryType != alert.Key.String() {
		t.Errorf("validation names %s/%s, want %s/%s", v.DB, v.QueryType, alert.DB, alert.Key)
	}

	host.mu.Lock()
	serving, version := host.model, host.version
	host.mu.Unlock()
	if version != 2 || host.commits != 1 {
		t.Fatalf("version=%d commits=%d after one refresh", version, host.commits)
	}
	if host.copies != 1 {
		t.Errorf("the task had %d EDs copied for it, want exactly the alerted one", host.copies)
	}
	if serving == h.model {
		t.Fatal("commit published the original model, not a copy-on-write successor")
	}
	// Only the alerted key was rebuilt: it now holds the fresh probe
	// observations, while untouched keys keep their trained counts.
	newED := serving.DBs[0].EDs[alert.Key]
	if newED.Observations() == beforeObs {
		t.Error("alerted ED was not rebuilt")
	}
	if got, want := serving.DBs[0].EDs[otherKey].Observations(), h.model.DBs[0].EDs[otherKey].Observations(); got != want {
		t.Errorf("untouched key %s changed: %d -> %d observations", otherKey, want, got)
	}
	// The original serving model must be untouched (copy-on-write).
	if got := h.model.DBs[0].EDs[alert.Key].Observations(); got != beforeObs {
		t.Errorf("refresh mutated the serving model: %d -> %d observations", beforeObs, got)
	}
	if c := reg.Counter("mp_refresh_total", obs.Labels{"outcome": "ok"}).Value(); c != 1 {
		t.Errorf("mp_refresh_total{outcome=ok} = %d", c)
	}
}

// TestRefreshRollsBackRegression forces a candidate that fits its
// training probes but regresses on holdout: the source hands out only
// queries of the alerted type, each once, so the refresher's i-th
// candidate is the source's i-th query and the interleaved split is
// known by query. Train positions observe a near-total collapse (3% of
// the estimate, error ratio ≈ −0.97) while holdout positions answer
// truthfully. The candidate ED concentrates its mass in the [−1, −0.9)
// bin, where truthful high-band errors — overwhelmingly positive on
// this testbed — never land, so the serving distribution fits the
// holdout better, validation fails, nothing is committed, and the
// rollback is counted.
func TestRefreshRollsBackRegression(t *testing.T) {
	h := buildHarness(t)
	host := newFakeHost(h)
	alert := h.alertFor(t, 24)
	sum := h.model.Summaries.Summaries[0]
	pos := make(map[string]int) // query → candidate index
	var keyed []string
	for _, q := range h.pool {
		s := q.String()
		if _, dup := pos[s]; dup || h.model.Cfg.Classifier.Classify(q.NumTerms(), h.rel.Estimate(sum, s)) != alert.Key {
			continue
		}
		pos[s] = len(keyed)
		keyed = append(keyed, s)
	}
	host.probeValue = func(_ int, q string, rhat, real float64) (float64, error) {
		if pos[q]%holdoutEvery == holdoutEvery-1 {
			return real, nil // holdout: no drift
		}
		return 0.03 * rhat, nil // training slice: collapse drift
	}

	reg := obs.NewRegistry()
	r := New(Config{Queries: func(int, int) []string { return keyed }, Metrics: reg}, host)
	defer r.Stop()

	r.Alert(alert)
	s := waitTasks(t, r, 1)
	if s.Rollbacks != 1 || s.Refreshes != 0 {
		t.Fatalf("stats = %+v, want one rollback", s)
	}
	if v := s.LastValidation; v == nil || v.Accepted || v.NewScore <= v.OldScore {
		t.Fatalf("validation should record the regression: %+v", v)
	}
	if host.commits != 0 || host.version != 1 {
		t.Fatalf("rollback must not publish: commits=%d version=%d", host.commits, host.version)
	}
	if c := reg.Counter("mp_refresh_total", obs.Labels{"outcome": "rollback"}).Value(); c != 1 {
		t.Errorf(`mp_refresh_total{outcome="rollback"} = %d`, c)
	}
}

// TestRefreshAborts covers the no-publish paths that never touch the
// model: no query source, not enough matching workload queries, and
// probe failures below minProbes.
func TestRefreshAborts(t *testing.T) {
	h := buildHarness(t)
	alert := h.alertFor(t, 24)

	t.Run("no query source", func(t *testing.T) {
		host := newFakeHost(h)
		r := New(Config{}, host)
		defer r.Stop()
		r.Alert(alert)
		if s := waitTasks(t, r, 1); s.Aborted != 1 {
			t.Fatalf("stats = %+v", s)
		}
		if host.commits != 0 {
			t.Error("aborted task must not commit")
		}
	})
	t.Run("probes fail", func(t *testing.T) {
		host := newFakeHost(h)
		host.probeValue = func(int, string, float64, float64) (float64, error) {
			return 0, fmt.Errorf("backend down")
		}
		r := New(Config{Queries: h.querySource}, host)
		defer r.Stop()
		r.Alert(alert)
		s := waitTasks(t, r, 1)
		if s.Aborted != 1 || host.commits != 0 {
			t.Fatalf("stats = %+v commits = %d", s, host.commits)
		}
		if s.LastValidation == nil || s.LastValidation.ProbesSpent == 0 {
			t.Error("aborted-after-probing task should still report probes spent")
		}
	})
	t.Run("bad database index", func(t *testing.T) {
		host := newFakeHost(h)
		r := New(Config{Queries: h.querySource}, host)
		defer r.Stop()
		r.Alert(Alert{DB: "nope", DBIdx: 99, Key: alert.Key})
		if s := waitTasks(t, r, 1); s.Aborted != 1 {
			t.Fatalf("stats = %+v", s)
		}
	})
}

// TestRefreshSuperseded: a hot-reload between the task's start and its
// commit bumps the serving version, so the host rejects the stale ED.
func TestRefreshSuperseded(t *testing.T) {
	h := buildHarness(t)
	host := newFakeHost(h)
	host.probeValue = func(call int, _ string, rhat, _ float64) (float64, error) {
		if call == 0 {
			// Simulate an operator reload racing the refresh.
			host.mu.Lock()
			host.version++
			host.mu.Unlock()
		}
		return 3 * rhat, nil
	}
	alert := h.alertFor(t, 24)
	r := New(Config{Queries: h.querySource}, host)
	defer r.Stop()
	r.Alert(alert)
	s := waitTasks(t, r, 1)
	if s.Superseded != 1 || host.commits != 0 {
		t.Fatalf("stats = %+v commits = %d, want superseded, no commit", s, host.commits)
	}
}

// TestAlertIntake exercises coalescing, cooldown suppression and
// queue-overflow drops without letting any task run: the worker is
// parked on a blocked Serving call.
func TestAlertIntake(t *testing.T) {
	h := buildHarness(t)
	host := newFakeHost(h)
	release := make(chan struct{})
	blocking := &blockingHost{Host: host, entered: make(chan struct{}), release: release}
	r := New(Config{Queries: h.querySource}, blocking)

	a := Alert{DB: h.model.DBs[0].Name, DBIdx: 0, Key: core.TypeKey{Terms: 2, Band: core.BandHigh}}
	// queueSize alerts for databases the host does not have: distinct
	// keys, and tasks that abort as soon as the worker reaches them.
	fill := make([]Alert, queueSize)
	for i := range fill {
		fill[i] = Alert{DB: "nope", DBIdx: 100 + i, Key: a.Key}
	}
	c := Alert{DB: h.model.DBs[0].Name, DBIdx: 0, Key: core.TypeKey{Terms: 2, Band: core.BandLow}}

	r.Alert(a) // picked up by the worker, parked on Serving
	<-blocking.entered
	for _, b := range fill {
		r.Alert(b) // fills the queue
	}
	r.Alert(fill[0]) // coalesced with the queued copy
	r.Alert(c)       // queue full: dropped
	r.Alert(a)       // a is mid-task (cooldown stamped): suppressed

	s := r.Stats()
	if s.Queued != 1+queueSize || s.Coalesced != 1 || s.Dropped != 1 || s.Cooldown != 1 {
		t.Errorf("intake stats = %+v, want queued=%d coalesced=1 dropped=1 cooldown=1", s, 1+queueSize)
	}
	close(release)
	waitTasks(t, r, 1+queueSize)
	r.Stop()
	r.Alert(a) // after Stop: dropped, never panics
	if s := r.Stats(); s.Dropped != 2 {
		t.Errorf("post-Stop alert not dropped: %+v", s)
	}
	// Stop is idempotent, and a nil Refresher ignores everything.
	r.Stop()
	var nilR *Refresher
	nilR.Alert(a)
	nilR.Stop()
	_ = nilR.Stats()
}

// blockingHost parks Serving until released, so tests can observe the
// queue state while the worker is busy.
type blockingHost struct {
	Host
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockingHost) Serving(dbIdx int, key core.TypeKey) (Serving, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.Host.Serving(dbIdx, key)
}

// TestParseTypeKeyRoundTrip pins RefreshNow's contract: the query type
// a DriftStatus reports parses back to the original key. The keys are
// every type the paper's classifier (threshold 100, 1..4 terms) yields.
func TestParseTypeKeyRoundTrip(t *testing.T) {
	c := core.Classifier{Threshold: 100, MaxTerms: 4}
	seen := map[core.TypeKey]bool{}
	for terms := 1; terms <= 4; terms++ {
		for _, rhat := range []float64{0, 50, 150} {
			key := c.Classify(terms, rhat)
			seen[key] = true
			got, err := core.ParseTypeKey(key.String())
			if err != nil || got != key {
				t.Errorf("ParseTypeKey(%q) = %v, %v", key.String(), got, err)
			}
		}
	}
	if len(seen) != 12 {
		t.Errorf("round-tripped %d distinct keys, want 12", len(seen))
	}
	for _, bad := range []string{"", "x", "2-term/", "2-term/mid", "-term/high", "0-term/low", "two-term/low"} {
		if _, err := core.ParseTypeKey(bad); err == nil {
			t.Errorf("ParseTypeKey(%q) should fail", bad)
		}
	}
	if !strings.Contains(func() string {
		_, err := core.ParseTypeKey("bogus")
		return err.Error()
	}(), "bogus") {
		t.Error("parse error should quote the input")
	}
}

// TestRefreshStreakTracking drives the readiness plumbing: every task
// that fails to publish grows FailureStreak and pins the triggering
// error in LastError; the first published refresh clears both. The
// same run checks the span tracer records a tree per task, with the
// published task carrying probe/validate/commit stage children.
func TestRefreshStreakTracking(t *testing.T) {
	h := buildHarness(t)
	host := newFakeHost(h)
	host.probeValue = func(_ int, _ string, rhat, _ float64) (float64, error) { return 3 * rhat, nil }
	alert := h.alertFor(t, 24)
	tr := span.NewTracer(0)
	r := New(Config{Queries: h.querySource, Spans: tr}, host)
	defer r.Stop()

	// The workload has no 1-term query, so these two tasks abort before
	// probing; each is its own key, out of the other's cooldown.
	for i, band := range []core.EstimateBand{core.BandLow, core.BandHigh} {
		r.Alert(Alert{DB: alert.DB, DBIdx: alert.DBIdx, Key: core.TypeKey{Terms: 1, Band: band}})
		s := waitTasks(t, r, int64(i+1))
		if s.Aborted != int64(i+1) || s.FailureStreak != int64(i+1) || s.LastError == "" {
			t.Fatalf("streak should accumulate across aborts: after %d, %+v", i+1, s)
		}
	}

	r.Alert(alert)
	s := waitTasks(t, r, 3)
	if s.Refreshes != 1 {
		t.Fatalf("expected the third task to publish: %+v", s)
	}
	if s.FailureStreak != 0 || s.RollbackStreak != 0 || s.LastError != "" {
		t.Fatalf("success must clear streaks and the sticky error: %+v", s)
	}

	traces := tr.Traces(0)
	if len(traces) != 3 {
		t.Fatalf("recorded %d traces, want one per task", len(traces))
	}
	published := false
	for _, ts := range traces {
		names := map[string]bool{}
		var root *span.Span
		for _, sp := range tr.TraceSpans(ts.TraceID) {
			names[sp.Name] = true
			if sp.Name == "refresh" {
				root = sp
			}
		}
		if root == nil {
			t.Fatalf("trace %s has no refresh root", ts.TraceID)
		}
		if root.Attrs["outcome"] != "ok" {
			continue
		}
		published = true
		for _, want := range []string{"refresh.probe", "refresh.validate", "refresh.commit"} {
			if !names[want] {
				t.Errorf("published refresh trace missing %s span", want)
			}
		}
	}
	if !published {
		t.Error("no trace with outcome ok recorded")
	}
}
