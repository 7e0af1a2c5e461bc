package core

// Precomputed RD tables: deriving a query's RDs from scratch costs, for
// every database: estimate, classify, then convolve the error
// distribution into a relevancy distribution (rdFor, the reference the
// tests keep). That convolution is a pure function of (database,
// query type) plus a per-query scale: for the relative-error bands,
// ED.rd(r̂) produces values r̂·(1 + e_bin) with probabilities that do
// not depend on r̂ at all, and for the r̂ = 0 band the whole RD is
// independent of r̂.
//
// A ModelVersion therefore carries an rdTable: one row per (database,
// classifier key) plus one per database for its pooled ED, all built
// when the version is published (NewModelVersion / Next). Rows come in
// three kinds:
//
//   - rdEntryScaled: a template RD built with ED.rd(1), so its support
//     is exactly the per-bin factors (1 + e_bin). A selection derives
//     the query's RD by multiplying the template support by r̂ — the
//     identical float expression r̂·(1 + e_bin) the from-scratch path
//     computes, so table-lookup selections are bit-equal to
//     rdFor-derived ones — while sharing the template's probabilities
//     and cumulative tails (both scale-invariant). The row also keeps
//     the frozenED it was built from, for the estimates a template
//     cannot be scaled by.
//   - rdEntryAbsolute: the r̂ = 0 band's RD, shared outright (its
//     values ignore r̂).
//   - rdEntryCold: no usable error model for the key; selections fall
//     back to an impulse at the estimate, exactly like rdFor.
//
// Coherence: readers read summaries, configuration and table rows —
// never an ED. A row is immutable and always present. Online refinement
// (ModelVersion.Observe) changes an ED at once and marks its rows dirty;
// every epochObservations observations, and before Next derives a
// successor, the dirty rows are built anew over their EDs and stored
// through the rows' atomic pointers (ModelVersion.publishRows), so a row
// lags its ED by less than one epoch. The writers, and anything else
// that reads an ED of a serving model (saving it, copying one ED out
// for a refresh), hold the owner's one model lock; FillSelection takes
// none. Next derives the successor's table copy-on-write, sharing every
// row whose EDs are untouched, and old versions keep their tables until
// released, so in-flight selections never see a torn row.

import (
	"math"
	"sync/atomic"

	"metaprobe/internal/summary"
)

// termsEstimator is the optional batch face of a relevancy estimator
// (DocFrequency implements it): Terms normalizes the query once,
// EstimateTerms reuses the result per summary with bit-identical
// output to Estimate. FillSelection uses it to tokenize one query once
// across all databases instead of once per database.
type termsEstimator interface {
	Terms(query string) []string
	EstimateTerms(s *summary.Summary, terms []string) float64
}

// rdEntryKind discriminates how a table entry turns into a per-query
// RD.
type rdEntryKind uint8

const (
	// rdEntryCold marks a key with no usable error model: serve an
	// impulse at the query's estimate (rdFor's final fallback).
	rdEntryCold rdEntryKind = iota
	// rdEntryScaled holds an ED.rd(1) template whose support must be
	// multiplied by the query's estimate.
	rdEntryScaled
	// rdEntryAbsolute holds the finished RD of an absolute-value
	// (BandZero) ED, shared as-is.
	rdEntryAbsolute
)

// rdEntry is one immutable table row.
type rdEntry struct {
	kind rdEntryKind
	rd   *RD      // nil for rdEntryCold
	src  frozenED // the ED behind an rdEntryScaled template
}

// coldRDEntry is the shared row for keys without a usable error model.
var coldRDEntry = &rdEntry{kind: rdEntryCold}

// rdTable is a ModelVersion's precomputed RD lookup: per database,
// nKeys classifier-key rows followed by the pooled ED's row. A key
// whose own ED is not trusted is served by the pooled row itself (the
// same pointer), so refinement of the pooled ED re-points those rows
// instead of re-convolving each.
type rdTable struct {
	// nKeys is the classifier's key-space size (effective MaxTerms × 3
	// bands); a key's offset within its database is (Terms-1)*3 + Band,
	// the pooled row's is nKeys.
	nKeys int
	rows  []atomic.Pointer[rdEntry]
	// dirty marks, row for row, the rows whose ED has taken an
	// observation since they were built; pending counts the observations
	// since the last publication. Both are the writers' (see Coherence).
	dirty   []bool
	pending int
}

// classifierKeySpace returns the dense key-space size for c, matching
// Classify's clamping (MaxTerms ≤ 0 defaults to 4).
func classifierKeySpace(c Classifier) int {
	maxTerms := c.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 4
	}
	return maxTerms * 3
}

// newRDTable allocates an empty table shaped for m.
func newRDTable(m *Model) *rdTable {
	nKeys := classifierKeySpace(m.Cfg.Classifier)
	n := len(m.DBs) * (nKeys + 1)
	return &rdTable{nKeys: nKeys, rows: make([]atomic.Pointer[rdEntry], n), dirty: make([]bool, n)}
}

// row returns database dbIdx's row at offset k (nKeys = pooled).
func (t *rdTable) row(dbIdx, k int) *atomic.Pointer[rdEntry] {
	return &t.rows[dbIdx*(t.nKeys+1)+k]
}

// keyOffset maps a key to its row offset. Classify clamps Terms into
// [1, MaxTerms] and Band into the three bands, so the offset is always
// below nKeys for keys it produced.
func keyOffset(key TypeKey) int { return (key.Terms-1)*3 + int(key.Band) }

// keyAt is keyOffset's inverse.
func keyAt(k int) TypeKey {
	return TypeKey{Terms: k/3 + 1, Band: EstimateBand(k % 3)}
}

// edRow preconvolves one ED into a row: the finished RD of a zero-band
// ED, the r̂ = 1 template of a relative one. Cold when the ED is
// missing, has fewer than minObs observations or does not convolve.
func edRow(ed *ED, minObs int64, zeroBand bool) *rdEntry {
	if ed == nil || ed.Observations() < minObs {
		return coldRDEntry
	}
	f := ed.freeze()
	kind, rhat := rdEntryScaled, 1.0
	if zeroBand {
		kind, rhat = rdEntryAbsolute, 0
	}
	rd, err := f.rd(rhat, make([]float64, len(f.reps)))
	if err != nil {
		return coldRDEntry
	}
	return &rdEntry{kind: kind, rd: rd, src: f}
}

// keyRow builds the row at key offset k, replicating rdFor's fallback
// chain: the key's own ED when trusted, else — for the relative bands
// — the database's pooled row, else cold.
func (t *rdTable) keyRow(m *Model, dbIdx, k int, pooled *rdEntry) *rdEntry {
	key := keyAt(k)
	e := edRow(m.DBs[dbIdx].EDs[key], m.Cfg.MinObservations, key.Band == BandZero)
	if e == coldRDEntry && key.Band != BandZero {
		return pooled
	}
	return e
}

// prebuild materializes every row not yet set, so a freshly published
// version pays the convolution cost once, off the query path.
func (t *rdTable) prebuild(m *Model) {
	for db, dm := range m.DBs {
		pr := t.row(db, t.nKeys)
		if pr.Load() == nil {
			pr.Store(edRow(dm.Pooled, m.Cfg.MinObservations, false))
		}
		pooled := pr.Load()
		for k := 0; k < t.nKeys; k++ {
			if r := t.row(db, k); r.Load() == nil {
				r.Store(t.keyRow(m, db, k, pooled))
			}
		}
	}
}

// observed marks dirty the rows over the EDs one observation of
// (dbIdx, key) changed: the key's own and, for a relative band — whose
// observations also feed the pooled ED — the pooled row.
func (t *rdTable) observed(dbIdx int, key TypeKey) {
	base := dbIdx * (t.nKeys + 1)
	t.dirty[base+keyOffset(key)] = true
	if key.Band != BandZero {
		t.dirty[base+t.nKeys] = true
	}
	t.pending++
}

// publish rebuilds every dirty row over its ED as it stands: per
// database the pooled row first, re-pointing the relative-band rows it
// serves, then the dirty keys' own.
func (t *rdTable) publish(m *Model) {
	for db := range m.DBs {
		dirty := t.dirty[db*(t.nKeys+1):][:t.nKeys+1]
		pr := t.row(db, t.nKeys)
		pooled := pr.Load()
		if dirty[t.nKeys] {
			was := pooled
			pooled = edRow(m.DBs[db].Pooled, m.Cfg.MinObservations, false)
			pr.Store(pooled)
			for k := 0; k < t.nKeys; k++ {
				if r := t.row(db, k); r.Load() == was && keyAt(k).Band != BandZero {
					r.Store(pooled)
				}
			}
		}
		for k := 0; k < t.nKeys; k++ {
			if dirty[k] {
				t.row(db, k).Store(t.keyRow(m, db, k, pooled))
			}
		}
	}
	clear(t.dirty)
	t.pending = 0
}

// derive builds the successor version's table copy-on-write against
// this one: databases whose DBModel pointer is unchanged share all
// rows; a replaced DBModel (a refresh commit) with the same pooled ED
// shares the pooled row and the rows whose ED pointers are identical,
// and rebuilds only the retrained ones.
func (t *rdTable) derive(oldM, newM *Model) *rdTable {
	out := newRDTable(newM)
	if t.nKeys == out.nKeys {
		n := len(newM.DBs)
		if len(oldM.DBs) < n {
			n = len(oldM.DBs)
		}
		for db := 0; db < n; db++ {
			od, nd := oldM.DBs[db], newM.DBs[db]
			if od != nd && od.Pooled != nd.Pooled {
				continue
			}
			out.row(db, t.nKeys).Store(t.row(db, t.nKeys).Load())
			for k := 0; k < t.nKeys; k++ {
				if key := keyAt(k); od == nd || od.EDs[key] == nd.EDs[key] {
					out.row(db, k).Store(t.row(db, k).Load())
				}
			}
		}
	}
	out.prebuild(newM)
	return out
}

// unscaled derives database dbIdx's RD for an estimate that scaled
// row e's template cannot take — a non-finite r̂, or one that makes two
// support points collide or overflow — from the frozen EDs instead, in
// rdFor's order: the row's own, the pooled row's, an impulse at the
// estimate. Rare, and bit-equal to rdFor.
func (t *rdTable) unscaled(dbIdx int, e *rdEntry, rhat float64) *RD {
	for _, c := range [2]*rdEntry{e, t.row(dbIdx, t.nKeys).Load()} {
		if c.kind != rdEntryScaled {
			continue
		}
		if rd, err := c.src.rd(rhat, make([]float64, len(c.src.reps))); err == nil {
			return rd
		}
	}
	return Impulse(rhat)
}

// NewSelection builds the initial (unprobed) state for a query through
// the version's RD table: FillSelection into a new selection.
func (v *ModelVersion) NewSelection(query string, numTerms int, metric Metric, k int) *Selection {
	return v.FillSelection(nil, query, numTerms, metric, k)
}

// FillSelection re-initializes sel in place as the initial unprobed
// state for a query, deriving every database's RD from the version's
// table: a shared RD for the absolute band, the template support
// scaled by the estimate for the relative bands (into selection-owned
// buffers, sharing the template's probabilities and cumulative tails),
// and a reusable impulse for cold keys. sel may be nil (one is
// allocated) or a recycled shell from any earlier query or model
// version — every field is rewritten, so after warm-up the fill
// allocates nothing. Returns sel for chaining. Safe to call from any
// number of goroutines, whatever the writers are doing.
func (v *ModelVersion) FillSelection(sel *Selection, query string, numTerms int, metric Metric, k int) *Selection {
	if sel == nil {
		sel = &Selection{}
	}
	m := v.Model
	n := len(m.DBs)
	sel.reset(query, metric, k, n)
	tab := v.rdtab
	// Before the first row read: the tree a publication would take away
	// (memo.go).
	memo := v.memo.Load()
	te, batch := m.Rel.(termsEstimator)
	var terms []string
	if batch {
		terms = te.Terms(query)
	}
	for i := 0; i < n; i++ {
		var rhat float64
		if batch {
			rhat = te.EstimateTerms(m.Summaries.Summaries[i], terms)
		} else {
			rhat = m.Rel.Estimate(m.Summaries.Summaries[i], query)
		}
		sel.estimates[i] = rhat
		e := tab.row(i, keyOffset(m.Cfg.Classifier.Classify(numTerms, rhat))).Load()
		switch {
		case e.kind == rdEntryAbsolute:
			sel.rds[i] = e.rd
		case e.kind == rdEntryScaled && rhat > 0 && !math.IsInf(rhat, 1) && sel.setScaledRD(i, e.rd, rhat):
			// setScaledRD installed the derived RD.
		case e.kind == rdEntryCold && rhat == 0:
			sel.rds[i] = zeroImpulse
		case e.kind == rdEntryCold:
			sel.rds[i] = sel.ownedImpulse(i, rhat)
		default:
			sel.rds[i] = tab.unscaled(i, e, rhat)
		}
	}
	// After the last row read: the same tree still in place means no row
	// above was republished in between.
	if v.memo.Load() != memo {
		memo = nil
	}
	sel.attachMemo(memo, numTerms)
	return sel
}

// ObserveProbe is Observe for callers that need only the error.
func (v *ModelVersion) ObserveProbe(dbIdx int, query string, numTerms int, actual float64) error {
	_, _, err := v.Observe(dbIdx, query, numTerms, actual)
	return err
}

// Observe folds a live probe observation into this version's model
// (Model.observe) — at once, so whoever reads the EDs reads it — and
// returns the query type it was filed under with the estimate that
// classified it. Selections read rows, and see it when the epoch's rows
// are published: with the epochObservations-th observation since the
// last publication, or by Next. A writer: callers hold the model lock.
func (v *ModelVersion) Observe(dbIdx int, query string, numTerms int, actual float64) (key TypeKey, rhat float64, err error) {
	if key, rhat, err = v.Model.observe(dbIdx, query, numTerms, actual); err != nil {
		return key, rhat, err
	}
	v.rdtab.observed(dbIdx, key)
	if v.rdtab.pending >= epochObservations {
		v.publishRows()
	}
	return key, rhat, nil
}

// publishRows makes every pending observation visible to selections. The
// order is the writer's half of the memo's coherence rule (memo.go): take
// the tree away, store the rows, put an empty tree in its place.
func (v *ModelVersion) publishRows() {
	if v.rdtab.pending == 0 {
		return
	}
	v.memo.Store(nil)
	v.rdtab.publish(v.Model)
	startMemo(&v.memo)
}
