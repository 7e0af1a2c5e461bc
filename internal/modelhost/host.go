// Package modelhost owns the serving model: the RCU pointer selections
// read it through, the one lock its writers hold, the drift windows
// whose references must move with every publication, and the database
// names alerts and drift series carry. It is a package, not a type inside
// the facade, because Go has no privacy inside a package: here "readers
// read what a published version never changes; writers hold the lock"
// is what compiles, not what a comment asks for.
//
// Readers take a View, which has no path to a *core.Model, an *core.ED
// or a histogram. Writers are a closed set of methods, each one critical
// section; none runs code it was handed except Locked, and Observe
// returns the drift alert instead of delivering it, so there is no place
// to call user code while the lock is held.
package modelhost

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/obs"
	"metaprobe/internal/refresh"
	"metaprobe/internal/summary"
)

// Host is the one owner of the serving model. All methods are safe for
// concurrent use.
type Host struct {
	names []string
	// reg receives the mp_ed_drift_* series; nil disables them.
	reg *obs.Registry
	// mu is the writers' lock: whoever writes or reads the serving
	// model's EDs, or the drift windows, holds it. Selections do not (see
	// View).
	mu sync.Mutex
	// version is stored only under mu; readers load it without.
	version atomic.Pointer[core.ModelVersion]
	// drift holds the windows of the keys the serving model trusts; nil
	// when detection is off.
	drift map[driftKey]*window
}

// New returns a host serving nothing yet. names are the mediated
// databases in testbed order; drift turns detection on, with its series
// in reg when reg is non-nil.
func New(names []string, drift bool, reg *obs.Registry) *Host {
	h := &Host{names: names}
	if !drift {
		return h
	}
	h.drift, h.reg = make(map[driftKey]*window), reg
	if reg != nil {
		reg.Help("mp_ed_drift_alerts_total", "Drift tests that rejected the trained error distribution, per database.")
		reg.Help("mp_ed_drift_tests_total", "KS drift tests run against trained error distributions.")
		reg.Help("mp_ed_drift_statistic", "Latest KS distance between fresh probe errors and the trained ED.")
		reg.Help("mp_ed_drift_pvalue", "Latest KS p-value of fresh probe errors against the trained ED.")
		reg.Counter("mp_ed_drift_tests_total", nil)
	}
	return h
}

// Names returns the database names in testbed order. The slice is
// shared; callers must not change it.
func (h *Host) Names() []string { return h.names }

// View is a reader's handle on one published version, one pointer by
// value: everything it reaches — configuration, summaries, RD-table
// rows, the decision memo — is safe to read with no lock for as long as
// the View is kept, whatever is published meanwhile. The zero View
// answers Trained false; its other methods must not be called.
type View struct{ v *core.ModelVersion }

// View loads the serving version once. A nil host (the zero
// Metasearcher) serves nothing.
func (h *Host) View() View {
	if h == nil {
		return View{}
	}
	return View{h.version.Load()}
}

// Trained reports whether the view holds a version.
func (v View) Trained() bool { return v.v != nil }

// Fill is core.ModelVersion.FillSelection on the viewed version.
func (v View) Fill(shell *core.Selection, query string, numTerms int, metric core.Metric, k int) *core.Selection {
	return v.v.FillSelection(shell, query, numTerms, metric, k)
}

// Classify returns the query type a numTerms-term query with estimate
// rhat falls into under the version's decision tree.
func (v View) Classify(numTerms int, rhat float64) core.TypeKey {
	return v.v.Model.Cfg.Classifier.Classify(numTerms, rhat)
}

// Summaries returns the content summaries the version estimates from,
// in testbed order. They are shared and read-only.
func (v View) Summaries() []*summary.Summary { return v.v.Model.Summaries.Summaries }

// Memo reports the version's decision memo: states held, and whether it
// still remembers.
func (v View) Memo() (nodes int, on bool) { return v.v.Memo() }

// Provenance says which version a view holds and how it came to be.
type Provenance struct {
	Version   int64
	Source    string
	CreatedAt time.Time
	// RefreshedAt is the view's own copy.
	RefreshedAt map[string]time.Time
}

// Provenance describes the viewed version.
func (v View) Provenance() Provenance {
	return Provenance{
		Version:     v.v.Version,
		Source:      v.v.Source,
		CreatedAt:   v.v.CreatedAt,
		RefreshedAt: maps.Clone(v.v.RefreshedAt),
	}
}

// publish stores the successor version holding model, under mu.
func (h *Host) publish(model *core.Model, source, refreshedDB string) *core.ModelVersion {
	now := time.Now()
	var next *core.ModelVersion
	if cur := h.version.Load(); cur != nil {
		next = cur.Next(model, source, refreshedDB, now)
	} else {
		next = core.NewModelVersion(model, source, now)
	}
	h.version.Store(next)
	return next
}

// Install publishes a trained or loaded model and re-anchors drift
// detection on it: every window goes, and each (database, query type)
// whose ED carries at least MinObservations samples gets that ED's
// reference sample and an empty window. One critical section, because
// the EDs are open to refinement by Observe from the moment the version
// is stored.
func (h *Host) Install(model *core.Model, source string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.publish(model, source, "")
	if h.drift == nil {
		return
	}
	clear(h.drift)
	for i, dm := range model.DBs {
		for key, ed := range dm.EDs {
			if ed.Observations() >= model.Cfg.MinObservations {
				h.anchor(i, key, ed)
			}
		}
	}
}

// Observe folds one successful live probe of database db into the
// version serving now (fresh data belongs to whatever serves next, not
// to the version the probing selection was built from). With refine the
// observation enters the matching ED, and selections see it when the
// version next republishes its RD rows (core.ModelVersion.Observe); with
// detection on the fresh error enters that key's window. A failed drift
// test comes back as the alert (ok true) for the caller to deliver once
// Observe has returned: the host has no callback, so handlers may save,
// reload or retrain.
func (h *Host) Observe(db int, query string, numTerms int, actual float64, refine bool) (alert refresh.Alert, ok bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ver := h.version.Load()
	if ver == nil {
		return
	}
	// r̂ is computed from the model, once: the host is not handed the
	// selection the probe came from.
	model := ver.Model
	var key core.TypeKey
	var rhat float64
	if refine {
		key, rhat, err = ver.Observe(db, query, numTerms, actual)
	} else if h.drift != nil {
		rhat = model.Rel.Estimate(model.Summaries.Summaries[db], query)
		key = model.Cfg.Classifier.Classify(numTerms, rhat)
	}
	if err != nil || h.drift == nil {
		return
	}
	// The window takes what the matching ED was trained on — (r − r̂)/r̂,
	// or r itself in the r̂ = 0 band — quantized onto the ED's bins (see
	// ED.ReferenceSample) so the KS test compares like with like. A query
	// type with no trusted ED has no window to be tested in.
	if ed, tracked := model.DBs[db].EDs[key]; tracked {
		v := actual
		if key.Band != core.BandZero {
			v = (actual - rhat) / rhat
		}
		alert, ok = h.observeDrift(db, key, ed.Quantize(v))
	}
	return
}

// Serving implements refresh.Host: the task's view of the serving
// model, the alerted ED copied under the lock so online refinement
// stays out of the histogram meanwhile.
func (h *Host) Serving(dbIdx int, key core.TypeKey) (refresh.Serving, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.version.Load()
	if v == nil {
		return refresh.Serving{}, fmt.Errorf("metaprobe: refresh: no serving model")
	}
	if dbIdx < 0 || dbIdx >= len(v.Model.DBs) {
		return refresh.Serving{}, fmt.Errorf("metaprobe: refresh: database index %d outside [0, %d)", dbIdx, len(v.Model.DBs))
	}
	s := refresh.Serving{Version: v.Version, Cfg: v.Model.Cfg, Rel: v.Model.Rel, Summary: v.Model.Summaries.Summaries[dbIdx]}
	if ed := v.Model.DBs[dbIdx].EDs[key]; ed != nil {
		s.ED = ed.Clone()
	}
	return s, nil
}

// Commit implements refresh.Host: it publishes the successor of
// baseVersion in which ed is database dbIdx's ED for key and re-anchors
// that key's drift window on it. The successor shares every other ED
// with the serving model (copy-on-write at the narrowest granularity),
// so refinements that landed while the refresh probed are kept.
func (h *Host) Commit(baseVersion int64, dbIdx int, key core.TypeKey, ed *core.ED) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.version.Load()
	if cur == nil || cur.Version != baseVersion {
		return 0, refresh.ErrSuperseded
	}
	next, err := cur.Model.WithED(dbIdx, key, ed)
	if err != nil {
		return 0, fmt.Errorf("metaprobe: refresh commit: %w", err)
	}
	nv := h.publish(next, "refresh", h.names[dbIdx])
	if h.drift != nil {
		h.anchor(dbIdx, key, ed)
	}
	return nv.Version, nil
}

// Locked runs fn on the serving version (nil before the first Install)
// with the writers' lock held, for the caller that must read every ED
// consistently — SaveModel's encode — and for tests. fn must not call
// back into the host or keep the version past its return.
func (h *Host) Locked(fn func(*core.ModelVersion) error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fn(h.version.Load())
}
