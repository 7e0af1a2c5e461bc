package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/summary"
)

// Config parameterizes model training.
type Config struct {
	// Classifier is the query-type decision tree (default: the paper's
	// threshold-100, up-to-4-terms tree).
	Classifier Classifier
	// ErrorEdges are the relative-error histogram bins (default
	// DefaultErrorEdges).
	ErrorEdges []float64
	// AbsoluteEdges are the bins for the r̂ = 0 band (default
	// defaultAbsoluteEdges).
	AbsoluteEdges []float64
	// UseBinMean selects per-bin observed means as RD support values
	// (default true; false = midpoints, ablation A3).
	UseBinMean bool
	// MinObservations is the minimum training observations a
	// (database, type) ED needs before it is trusted; sparser types
	// fall back to the database's pooled ED (default 10).
	MinObservations int64
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation (document-frequency relevancy).
func DefaultConfig() Config {
	return Config{
		Classifier:      defaultClassifier(),
		ErrorEdges:      DefaultErrorEdges(),
		AbsoluteEdges:   defaultAbsoluteEdges(),
		UseBinMean:      true,
		MinObservations: 10,
	}
}

// SimilarityConfig returns a configuration suited to the
// document-similarity relevancy definition (cosine values in [0, 1]).
func SimilarityConfig() Config {
	return Config{
		Classifier:      Classifier{Threshold: 0.3, MaxTerms: 4},
		ErrorEdges:      similarityErrorEdges(),
		AbsoluteEdges:   similarityAbsoluteEdges(),
		UseBinMean:      true,
		MinObservations: 10,
	}
}

func (c *Config) setDefaults() {
	if c.Classifier == (Classifier{}) {
		c.Classifier = defaultClassifier()
	}
	if c.ErrorEdges == nil {
		c.ErrorEdges = DefaultErrorEdges()
	}
	if c.AbsoluteEdges == nil {
		c.AbsoluteEdges = defaultAbsoluteEdges()
	}
	if c.MinObservations == 0 {
		c.MinObservations = 10
	}
}

// DBModel holds the learned distributions for one database: one ED per
// query type (Figure 9) plus a pooled fallback over all non-zero-band
// training queries.
type DBModel struct {
	// Name is the database's name.
	Name string
	// EDs maps query type → learned error distribution.
	EDs map[TypeKey]*ED
	// Pooled aggregates all relative-error observations of the
	// database, the fallback for sparsely observed types.
	Pooled *ED
}

// Model is the trained probabilistic relevancy model for a testbed: the
// per-database, per-query-type error distributions together with the
// summaries and relevancy definition needed to produce RDs for unseen
// queries.
type Model struct {
	// Cfg is the training configuration.
	Cfg Config
	// Rel is the relevancy definition and estimator.
	Rel estimate.Relevancy
	// Summaries are the per-database content summaries, in testbed
	// order.
	Summaries *summary.Set
	// DBs are the per-database learned distributions, in testbed order.
	DBs []*DBModel
}

// Train learns the error distributions by sampling every database with
// the training queries (Section 4): for each (database, query) pair it
// computes the estimate from the summary, probes the database for the
// actual relevancy, classifies the query, and accumulates the error in
// the matching ED. Databases are trained concurrently.
func Train(tb *hidden.Testbed, sums *summary.Set, rel estimate.Relevancy, train []queries.Query, cfg Config) (*Model, error) {
	cfg.setDefaults()
	if tb.Len() == 0 {
		return nil, fmt.Errorf("core: training needs at least one database")
	}
	if len(sums.Summaries) != tb.Len() {
		return nil, fmt.Errorf("core: %d summaries for %d databases", len(sums.Summaries), tb.Len())
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("core: training needs at least one query")
	}
	m := &Model{Cfg: cfg, Rel: rel, Summaries: sums, DBs: make([]*DBModel, tb.Len())}

	var wg sync.WaitGroup
	errs := make([]error, tb.Len())
	for dbIdx := 0; dbIdx < tb.Len(); dbIdx++ {
		wg.Add(1)
		go func(dbIdx int) {
			defer wg.Done()
			m.DBs[dbIdx], errs[dbIdx] = trainOne(tb.DB(dbIdx), sums.Summaries[dbIdx], rel, train, cfg)
		}(dbIdx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// trainOne learns one database's EDs.
func trainOne(db hidden.Database, sum *summary.Summary, rel estimate.Relevancy, train []queries.Query, cfg Config) (*DBModel, error) {
	dm := &DBModel{Name: db.Name(), EDs: make(map[TypeKey]*ED)}
	var err error
	dm.Pooled, err = NewED(cfg.ErrorEdges, false, cfg.UseBinMean)
	if err != nil {
		return nil, err
	}
	for _, q := range train {
		qs := q.String()
		rhat := rel.Estimate(sum, qs)
		actual, err := rel.Probe(db, qs)
		if err != nil {
			return nil, fmt.Errorf("core: training %s on %q: %w", db.Name(), qs, err)
		}
		if err := dm.file(&cfg, cfg.Classifier.Classify(q.NumTerms(), rhat), rhat, actual); err != nil {
			return nil, fmt.Errorf("core: training %s on %q: %w", db.Name(), qs, err)
		}
	}
	return dm, nil
}

// observe folds a live probe observation back into the model — the
// online-refinement extension the paper's future-work section points
// toward: every probe APro performs is also a free training sample, so
// the error distributions keep improving (and track database drift)
// during operation. It reports the query type the observation was filed
// under and the estimate that classified it.
func (m *Model) observe(dbIdx int, query string, numTerms int, actual float64) (key TypeKey, rhat float64, err error) {
	if dbIdx < 0 || dbIdx >= len(m.DBs) {
		return TypeKey{}, 0, fmt.Errorf("core: observe: database index %d outside [0, %d)", dbIdx, len(m.DBs))
	}
	rhat = m.Rel.Estimate(m.Summaries.Summaries[dbIdx], query)
	key = m.Cfg.Classifier.Classify(numTerms, rhat)
	if err := m.DBs[dbIdx].file(&m.Cfg, key, rhat, actual); err != nil {
		return key, rhat, fmt.Errorf("core: observe: %w", err)
	}
	return key, rhat, nil
}

// file folds one (r̂, actual) observation of a query of type key into dm:
// into the key's ED, created on the key's first observation, and —
// outside the zero band — into the pooled ED.
func (dm *DBModel) file(cfg *Config, key TypeKey, rhat, actual float64) error {
	ed, ok := dm.EDs[key]
	if !ok {
		edges := cfg.ErrorEdges
		absolute := key.Band == BandZero
		if absolute {
			edges = cfg.AbsoluteEdges
		}
		var err error
		if ed, err = NewED(edges, absolute, cfg.UseBinMean); err != nil {
			return err
		}
		dm.EDs[key] = ed
	}
	if err := ed.Observe(rhat, actual); err != nil {
		return err
	}
	if key.Band != BandZero {
		return dm.Pooled.Observe(rhat, actual)
	}
	return nil
}

// Selection is the per-query state: the RDs of all databases, which of
// them have been probed, and the target metric and k.
type Selection struct {
	// metric is the correctness definition being optimized.
	metric Metric
	// k is the number of databases to select.
	k int
	// query is the user's query string.
	query string

	rds       []*RD
	estimates []float64
	probed    []bool

	// scratch is the pooled incremental evaluation state (selstate.go),
	// acquired lazily on the first Best and handed back by Release. It
	// caches the key grid, Poisson-binomial DP rows and membership
	// marginals of the current RDs; ApplyProbe marks it stale.
	scratch *selScratch
	// impulses are selection-owned impulse RDs reused by ApplyProbe
	// (one per database) so steady-state probing does not allocate.
	impulses []*RD
	// derived are selection-owned RD headers for the table-lookup path
	// (ModelVersion.FillSelection): each holds the version template's
	// support scaled by this query's estimate in derivedVals, sharing
	// the template's probabilities and cumulative tails (both are
	// scale-invariant). Reused across fills, so steady-state selection
	// building allocates nothing.
	derived     []*RD
	derivedVals [][]float64
	// unprobedBuf caches the unprobed index list for UnprobedView.
	unprobedBuf   []int
	unprobedStale bool
	// work counts what the greedy sweeps cost; see RankWork.
	work RankWork
	// ahead counts the loop's lookaheads; see AheadWork.
	ahead AheadWork
	// stages tallies the loop's stage times while timeStages is on; see
	// TimeStages.
	stages     StageTimes
	timeStages bool
	// memo is the node of the version's decision memo (memo.go) that
	// stands for the current state, memoRoot the root it descends from;
	// both nil when the selection remembers nothing — it was not filled
	// from a version, the version's memo is off or full, or a probe
	// answered NaN. memoSet, memoHead and memoU are where a remembered
	// best set and one-entry ranking are handed out from.
	memoRoot *memoRoot
	memo     *memoNode
	memoSet  []int
	memoHead [1]int
	memoU    [1]float64
}

// RankWork counts what one selection's greedy ranking paid for — the
// numbers behind "why was this selection slow?". Counts accumulate over
// the selection's probe steps. A decision read from the version's memo
// pays for nothing: a selection whose every step was decided before
// counts hits and zeros.
type RankWork struct {
	// Swept counts probe candidates whose usefulness was evaluated,
	// Skipped those the per-value bound ruled out unevaluated, and
	// Abandoned those it ruled out part way through their support values.
	Swept, Skipped, Abandoned int
	// Hypotheses counts the "suppose dbₕ yields w" evaluations made.
	Hypotheses int
	// Sets counts k-sets whose E[Cor] was computed, in the base and the
	// hypothesis searches alike; SetsShared those of them, all under a
	// hypothesis, whose per-key terms an earlier support value of the same
	// candidate had left behind.
	Sets, SetsShared int
	// GridReuses counts evaluations after a probe that kept the key grid
	// and recomputed the probed database's part of it only.
	GridReuses int
	// MemoHits counts decisions (a state's best set, a state's greedy
	// head) read from the version's decision memo, MemoMisses those
	// computed and stored there. Both stay 0 on a selection without one.
	MemoHits, MemoMisses int
}

// Work returns the ranking work counted since the selection was filled.
func (s *Selection) Work() RankWork { return s.work }

// NewSelectionFromRDs builds a selection directly from RDs (tests and
// paper examples).
func NewSelectionFromRDs(rds []*RD, metric Metric, k int) *Selection {
	ests := make([]float64, len(rds))
	for i, rd := range rds {
		ests[i] = rd.Mean()
	}
	return &Selection{
		metric:        metric,
		k:             k,
		rds:           append([]*RD(nil), rds...),
		estimates:     ests,
		probed:        make([]bool, len(rds)),
		unprobedStale: true,
	}
}

// Len returns the number of databases.
func (s *Selection) Len() int { return len(s.rds) }

// RD returns database i's current relevancy distribution.
func (s *Selection) RD(i int) *RD { return s.rds[i] }

// Estimate returns r̂ for database i.
func (s *Selection) Estimate(i int) float64 { return s.estimates[i] }

// isProbed reports whether database i has been probed.
func (s *Selection) isProbed(i int) bool { return s.probed[i] }

// unprobed lists the databases not yet probed, in index order. The
// returned slice is a fresh copy the caller may keep; hot paths that
// only read use UnprobedView.
func (s *Selection) unprobed() []int {
	v := s.UnprobedView()
	if len(v) == 0 {
		return nil
	}
	return append([]int(nil), v...)
}

// UnprobedView returns the unprobed database indices in ascending
// order without allocating. The slice is owned by the selection and
// valid only until the next probe.
func (s *Selection) UnprobedView() []int {
	if s.unprobedStale {
		s.unprobedBuf = s.unprobedBuf[:0]
		for i, p := range s.probed {
			if !p {
				s.unprobedBuf = append(s.unprobedBuf, i)
			}
		}
		s.unprobedStale = false
	}
	return s.unprobedBuf
}

// ApplyProbe records a probe outcome: database i's RD collapses to an
// impulse at the observed relevancy. The impulse is selection-owned
// and reused across Reuse cycles, so steady-state probing allocates
// nothing after warm-up.
func (s *Selection) ApplyProbe(i int, value float64) {
	if s.memo != nil {
		s.memo = s.memo.child(s.memoRoot.tree, i, value)
	}
	s.rds[i] = s.ownedImpulse(i, value)
	s.probed[i] = true
	s.unprobedStale = true
	if sc := s.scratch; sc != nil && sc.valid && sc.isLive[i] {
		// The grid stands but for i's column and keys (selScratch.collapse).
		sc.valid, sc.collapsed = false, i
	} else {
		s.invalidate()
	}
}

// ownedImpulse returns the selection's reusable impulse RD for
// database i, re-pointed at v.
func (s *Selection) ownedImpulse(i int, v float64) *RD {
	if len(s.impulses) < len(s.rds) {
		imps := make([]*RD, len(s.rds))
		copy(imps, s.impulses)
		s.impulses = imps
	}
	if s.impulses[i] == nil {
		s.impulses[i] = Impulse(v)
	} else {
		s.impulses[i].setImpulse(v)
	}
	return s.impulses[i]
}

// setScaledRD points slot i at a selection-owned RD whose support is
// tmpl's multiplied by rhat (> 0), sharing tmpl's probabilities and
// cumulative tails. This is the table-lookup path's per-query RD: the
// template support is (1 + e_bin), so rhat·support is the identical
// expression the from-scratch ED.rd(rhat) computes. Returns false —
// installing nothing — when the scaled support is unusable (two
// points collide after rounding, or the product overflows); the
// caller then falls back to the from-scratch derivation.
func (s *Selection) setScaledRD(i int, tmpl *RD, rhat float64) bool {
	n := len(s.rds)
	if len(s.derived) < n {
		d := make([]*RD, n)
		copy(d, s.derived)
		s.derived = d
		dv := make([][]float64, n)
		copy(dv, s.derivedVals)
		s.derivedVals = dv
	}
	buf := s.derivedVals[i]
	if cap(buf) < tmpl.Len() {
		buf = make([]float64, tmpl.Len())
	}
	buf = buf[:tmpl.Len()]
	s.derivedVals[i] = buf
	prev := math.Inf(-1)
	for j, v := range tmpl.values {
		sv := rhat * v
		if !(sv > prev) || math.IsInf(sv, 1) { // also catches NaN
			return false
		}
		buf[j] = sv
		prev = sv
	}
	d := s.derived[i]
	if d == nil {
		d = &RD{}
		s.derived[i] = d
	}
	d.values = buf
	d.probs = tmpl.probs
	d.cumLT = tmpl.cumLT
	d.cumGE = tmpl.cumGE
	s.rds[i] = d
	return true
}

// reset re-initializes the selection as an empty unprobed state for n
// databases, reusing every backing array — the shell half of
// ModelVersion.FillSelection. The stage tally is cleared; the caller
// re-attaches what it needs.
func (s *Selection) reset(query string, metric Metric, k, n int) {
	s.metric, s.k, s.query = metric, k, query
	s.memoRoot, s.memo = nil, nil
	if cap(s.rds) < n {
		s.rds = make([]*RD, n)
	}
	s.rds = s.rds[:n]
	if cap(s.estimates) < n {
		s.estimates = make([]float64, n)
	}
	s.estimates = s.estimates[:n]
	if cap(s.probed) < n {
		s.probed = make([]bool, n)
	}
	s.probed = s.probed[:n]
	for i := range s.probed {
		s.probed[i] = false
	}
	s.unprobedStale = true
	s.work, s.ahead, s.stages, s.timeStages = RankWork{}, AheadWork{}, StageTimes{}, false
	s.invalidate()
}

// invalidate marks the incremental scratch stale after RDs changed.
func (s *Selection) invalidate() {
	if s.scratch != nil {
		s.scratch.invalidate()
	}
}

// Best returns the current best k-set and its expected correctness.
// The set is a fresh copy; the allocation-free variant is BestView.
func (s *Selection) Best() ([]int, float64) {
	set, e := s.best()
	if set == nil {
		return nil, e
	}
	return append([]int(nil), set...), e
}

// BestView is Best without allocating: the returned slice is owned by
// the selection and valid only until the next evaluation or probe.
// APro's loop uses it.
func (s *Selection) BestView() ([]int, float64) {
	return s.best()
}

// best is the current state's best k-set and its E[Cor]: read from the
// state's memo node when it has one that knows, evaluated and — with a
// node — stored otherwise.
func (s *Selection) best() ([]int, float64) {
	n := s.memo
	if n == nil {
		return s.evaluate()
	}
	s.memoSet = growInts(s.memoSet, s.k)
	if set, e, ok := n.bestInto(s.memoSet); ok {
		s.work.MemoHits++
		return set, e
	}
	set, e := s.evaluate()
	s.work.MemoMisses++
	n.setBest(set, e)
	return set, e
}

// evaluate is the current state's best k-set and its E[Cor], searched on
// the scratch. The set is valid until the next evaluation.
func (s *Selection) evaluate() ([]int, float64) {
	if s.degenerate() {
		return s.degenerateBest()
	}
	s.ensureScratch()
	return s.search()
}

// bestIf is the best k-set and its E[Cor] were database i to answer its
// vi-th support value — the greedy policy's "consider all the outcomes
// of probing dbᵢ" (Figure 13). The scratch's one-factor overlay answers
// it without a second state: s's RDs, probed set, memo and grid stay as
// they were, and only the sets it scores are counted. The set is valid
// until the next evaluation.
func (s *Selection) bestIf(i, vi int) ([]int, float64) {
	if s.degenerate() {
		return s.degenerateBest()
	}
	s.ensureScratch()
	sc := s.scratch
	sc.beginHypothesis(i, vi)
	set, e := s.search()
	sc.hypActive = false
	return set, e
}

// search runs the best-set search on the current scratch and counts the
// sets it scored.
func (s *Selection) search() ([]int, float64) {
	sc := s.scratch
	set, e := sc.bestFrom(s.metric)
	s.work.Sets += sc.sets
	s.work.SetsShared += sc.shared
	return set, e
}

// degenerate reports a k that needs no search: k ≤ 0 selects nothing and
// k ≥ n every database.
func (s *Selection) degenerate() bool { return s.k <= 0 || s.k >= len(s.rds) }

// degenerateBest is the best set of a degenerate k, whatever the RDs:
// none at 0 for k ≤ 0 or no databases, every database at 1 for k ≥ n.
func (s *Selection) degenerateBest() ([]int, float64) {
	n := len(s.rds)
	if s.k <= 0 || n == 0 {
		return nil, 0
	}
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	return set, 1
}

// ensureScratch acquires the pooled scratch and, when stale, repairs it
// (one live database probed since) or rebuilds it from the current RDs.
// Callers guarantee a k that is not degenerate.
func (s *Selection) ensureScratch() {
	if s.scratch == nil {
		s.scratch = acquireScratch()
	}
	sc := s.scratch
	switch same := sc.k == s.k && sc.n == len(s.rds); {
	case same && sc.valid:
	case same && sc.collapsed >= 0:
		sc.collapse(s.rds, sc.collapsed)
		s.work.GridReuses++
	default:
		sc.build(s.rds, s.k)
	}
}

// Release hands the selection's pooled scratch state back for reuse by
// later selections. Call it when done with the selection (the facade
// does, once per query); the selection stays usable afterwards — the
// scratch is simply re-acquired on demand.
func (s *Selection) Release() {
	if s.scratch == nil {
		return
	}
	s.scratch.release()
	s.scratch = nil
}

// Reuse re-initializes the selection as a fresh (unprobed-state) copy
// of src — same metric, k, query and RDs — reusing this
// selection's backing arrays and scratch. It is the zero-allocation
// way to run many selections over one template state (benchmarks,
// replay harnesses). src is typically a pristine template: immutable
// RDs (model-derived distributions, the version table's shared
// entries) are safely shared, while src-owned mutable state — impulse
// RDs (probed or cold-key) and table-derived scaled RDs, whose
// buffers src would overwrite on its next fill — is copied into this
// selection's own impulses and derived buffers, so neither selection
// can alias the other afterwards. When src's key grid is current the
// grid is copied too, so the first probe applied to this selection
// repairs it (collapse) instead of rebuilding it — how the lookahead and
// the optimal policy evaluate the state one probe on.
func (s *Selection) Reuse(src *Selection) {
	s.metric, s.k, s.query = src.metric, src.k, src.query
	s.memoRoot, s.memo = src.memoRoot, src.memo
	s.rds = append(s.rds[:0], src.rds...)
	s.estimates = append(s.estimates[:0], src.estimates...)
	if cap(s.probed) < len(src.probed) {
		s.probed = make([]bool, len(src.probed))
	}
	s.probed = s.probed[:len(src.probed)]
	copy(s.probed, src.probed)
	for i, rd := range s.rds {
		switch {
		case rd.isImpulse():
			s.rds[i] = s.ownedImpulse(i, rd.Value(0))
		case i < len(src.derived) && rd == src.derived[i]:
			// Scaling by 1 copies the support exactly while sharing the
			// immutable template probabilities; it cannot fail on an
			// already-valid support.
			s.setScaledRD(i, rd, 1)
		}
	}
	s.unprobedStale = true
	s.work, s.ahead, s.stages, s.timeStages = RankWork{}, AheadWork{}, StageTimes{}, false
	// src's grid is the one build would make from these RDs: copied, a
	// probe on this selection next is a collapse, not a rebuild.
	if sc := src.scratch; sc != nil && sc.valid {
		if s.scratch == nil {
			s.scratch = acquireScratch()
		}
		s.scratch.copyGrid(sc)
	} else {
		s.invalidate()
	}
}

// Marginals returns P(dbᵢ ∈ top-k) for every database — the
// membership probabilities behind the selection, useful for
// explaining a decision to a user or operator. They are the ones the
// scratch's evaluation computed; a degenerate k has every database in
// (k ≥ n) or none (k ≤ 0).
func (s *Selection) Marginals() []float64 {
	out := make([]float64, len(s.rds))
	switch {
	case !s.degenerate():
		s.ensureScratch()
		copy(out, s.scratch.marg)
	case s.k > 0:
		for i := range out {
			out[i] = 1
		}
	}
	return out
}

// BaselineSelect returns the k databases with the highest estimates
// (ties by index) — the term-independence-estimator baseline the paper
// compares against. The result is sorted by index.
func (s *Selection) BaselineSelect() []int {
	return TopKByScore(s.estimates, s.k)
}

// TopKByScore returns the indices of the k highest scores, ties broken
// by lower index, result sorted by index.
func TopKByScore(scores []float64, k int) []int {
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	set := append([]int(nil), order[:k]...)
	sort.Ints(set)
	return set
}

// equalFloat reports approximate equality for expectation comparisons.
func equalFloat(a, b float64) bool { return math.Abs(a-b) <= probEpsilon }
