package obs

import (
	"sort"
	"sync"

	"metaprobe/internal/stats"
)

// DriftConfig tunes a DriftDetector. The zero value selects the
// defaults documented on each field.
type DriftConfig struct {
	// WindowSize bounds the sliding window of fresh observations kept
	// per (database, query type); older observations are evicted
	// first-in-first-out (default 64).
	WindowSize int
	// MinSamples is the number of window observations required before
	// the first test runs for a key (default 32).
	MinSamples int
	// Interval is how many new observations accumulate between
	// successive tests of one key once MinSamples is met (default 16).
	Interval int
	// Alpha is the KS p-value below which a test counts as drift
	// (default 0.005). Callers compare fresh observations quantized to
	// the ED's bin midpoints against a reference replicated from the
	// same midpoints, so both samples share one discrete support and
	// the discrete-data KS p-value errs conservative; the strict
	// default additionally absorbs APro's probe-selection bias.
	Alpha float64
}

// driftDefaults fills unset fields.
func (c DriftConfig) withDefaults() DriftConfig {
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.MinSamples > c.WindowSize {
		c.MinSamples = c.WindowSize
	}
	if c.Interval <= 0 {
		c.Interval = 16
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.005
	}
	return c
}

// DriftAlert reports one failed drift test: the fresh probe errors of
// one (database, query type) no longer look drawn from the trained
// error distribution.
type DriftAlert struct {
	// DB is the drifting database's name.
	DB string
	// QueryType is the query-type key ("2-term/high").
	QueryType string
	// Statistic is the KS distance between the fresh window and the
	// trained reference.
	Statistic float64
	// PValue is the KS p-value that fell below Alpha.
	PValue float64
	// Samples is the window size at test time.
	Samples int
}

// DriftStatus is the point-in-time state of one monitored key.
type DriftStatus struct {
	// DB and QueryType identify the key.
	DB, QueryType string
	// Samples is the current window occupancy.
	Samples int
	// Tests and Alerts count the KS tests run and the ones that failed.
	Tests, Alerts int64
	// LastStatistic and LastPValue report the most recent test (zero
	// until a first test runs).
	LastStatistic, LastPValue float64
}

// DriftDetector watches the error distributions learned by sample
// probing (Section 4 of the paper) for staleness. Every live probe
// APro issues reveals an actual relevancy and hence a fresh relative
// error (r − r̂)/r̂ for free; the detector keeps a bounded sliding
// window of those errors per (database, query type) and periodically
// runs the two-sample Kolmogorov–Smirnov test against a reference
// sample reconstructed from the trained ED. A failed test means the
// collection has drifted away from what the model was trained on —
// exactly the condition under which E[Cor] silently mis-calibrates —
// and raises a DriftAlert so callers can schedule re-probing or
// re-training (closing the paper's adaptive loop online).
//
// Keys without a registered reference are ignored, so sparsely trained
// query types (below the model's MinObservations) never produce noise.
// All methods are safe for concurrent use; a nil *DriftDetector is a
// valid disabled value.
type DriftDetector struct {
	cfg DriftConfig

	mu   sync.Mutex
	keys map[driftKey]*driftWindow
	reg  *Registry
}

// driftKey identifies one monitored stream.
type driftKey struct{ db, qtype string }

// driftWindow is the per-key sliding window plus test bookkeeping.
type driftWindow struct {
	ref       []float64
	buf       []float64
	next      int
	full      bool
	sinceTest int
	tests     int64
	alerts    int64
	lastStat  float64
	lastP     float64
}

// NewDriftDetector returns a detector with cfg (zero fields default).
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	return &DriftDetector{cfg: cfg.withDefaults(), keys: make(map[driftKey]*driftWindow)}
}

// Config returns the effective (defaulted) configuration.
func (d *DriftDetector) Config() DriftConfig { return d.cfg }

// SetMetrics binds a registry: alerts bump mp_ed_drift_alerts_total
// (per database), tests bump mp_ed_drift_tests_total, and each key's
// latest KS statistic and p-value are exported as gauges. Call before
// the first Observe; a nil registry disables metric export.
func (d *DriftDetector) SetMetrics(reg *Registry) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.reg = reg
	d.mu.Unlock()
	if reg != nil {
		reg.Help("mp_ed_drift_alerts_total", "Drift tests that rejected the trained error distribution, per database.")
		reg.Help("mp_ed_drift_tests_total", "KS drift tests run against trained error distributions.")
		reg.Help("mp_ed_drift_statistic", "Latest KS distance between fresh probe errors and the trained ED.")
		reg.Help("mp_ed_drift_pvalue", "Latest KS p-value of fresh probe errors against the trained ED.")
		reg.Counter("mp_ed_drift_tests_total", nil)
	}
}

// SetReference registers (or refreshes) the trained reference sample
// for one (database, query type) and resets that key's window and test
// cadence. The sample is kept as given (sorted internally); see
// core.ED.ReferenceSample for the canonical way to materialize one
// from a trained ED.
func (d *DriftDetector) SetReference(db, queryType string, sample []float64) {
	if d == nil || len(sample) == 0 {
		return
	}
	ref := append([]float64(nil), sample...)
	sort.Float64s(ref)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[driftKey{db, queryType}] = &driftWindow{ref: ref, buf: make([]float64, 0, d.cfg.WindowSize)}
}

// Observe feeds one fresh observation for (database, query type): the
// relative error (r − r̂)/r̂ for relative-error types, or the absolute
// relevancy for the r̂ = 0 band — the same value space the matching ED
// was trained in. Observations for keys without a reference are
// dropped. When the window has at least MinSamples observations and
// Interval new ones arrived since the last test, the KS test runs
// inline (probes are remote round trips; a sort of ≤ WindowSize floats
// is noise next to one). A failed test is returned as an alert (ok
// true) for the caller to act on once it has released its own locks;
// callers that re-train or re-probe in response should debounce, since
// a persistently drifted key re-alerts every Interval observations
// until its reference is refreshed with SetReference.
func (d *DriftDetector) Observe(db, queryType string, v float64) (alert DriftAlert, ok bool) {
	if d == nil {
		return DriftAlert{}, false
	}
	d.mu.Lock()
	w, tracked := d.keys[driftKey{db, queryType}]
	if !tracked {
		d.mu.Unlock()
		return DriftAlert{}, false
	}
	if len(w.buf) < d.cfg.WindowSize {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.next] = v
		w.full = true
	}
	w.next = (w.next + 1) % d.cfg.WindowSize
	w.sinceTest++
	if len(w.buf) < d.cfg.MinSamples || w.sinceTest < d.cfg.Interval {
		d.mu.Unlock()
		return DriftAlert{}, false
	}
	// Time to test: run the KS test while still holding the lock
	// (cheap, keeps the bookkeeping atomic).
	w.sinceTest = 0
	w.tests++
	res, err := stats.KolmogorovSmirnov(w.buf, w.ref)
	if err != nil {
		d.mu.Unlock()
		return DriftAlert{}, false
	}
	w.lastStat, w.lastP = res.Statistic, res.PValue
	reg := d.reg
	ok = res.PValue < d.cfg.Alpha
	if ok {
		w.alerts++
		alert = DriftAlert{DB: db, QueryType: queryType, Statistic: res.Statistic, PValue: res.PValue, Samples: len(w.buf)}
	}
	d.mu.Unlock()

	if reg != nil {
		lbl := Labels{"db": db, "type": queryType}
		reg.Counter("mp_ed_drift_tests_total", nil).Inc()
		reg.Gauge("mp_ed_drift_statistic", lbl).Set(res.Statistic)
		reg.Gauge("mp_ed_drift_pvalue", lbl).Set(res.PValue)
		if ok {
			reg.Counter("mp_ed_drift_alerts_total", Labels{"db": db}).Inc()
		}
	}
	return alert, ok
}

// Snapshot lists the state of every monitored key, sorted by (db,
// query type) for deterministic reports.
func (d *DriftDetector) Snapshot() []DriftStatus {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	out := make([]DriftStatus, 0, len(d.keys))
	for k, w := range d.keys {
		out = append(out, DriftStatus{
			DB: k.db, QueryType: k.qtype,
			Samples: len(w.buf), Tests: w.tests, Alerts: w.alerts,
			LastStatistic: w.lastStat, LastPValue: w.lastP,
		})
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DB != out[j].DB {
			return out[i].DB < out[j].DB
		}
		return out[i].QueryType < out[j].QueryType
	})
	return out
}

// Alerts returns the total failed tests across all keys.
func (d *DriftDetector) Alerts() int64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, w := range d.keys {
		n += w.alerts
	}
	return n
}
