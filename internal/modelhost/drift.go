package modelhost

import (
	"sort"

	"metaprobe/internal/core"
	"metaprobe/internal/obs"
	"metaprobe/internal/refresh"
	"metaprobe/internal/stats"
)

// Drift detection watches the error distributions learned by sample
// probing (Section 4 of the paper) for staleness. Every live probe
// reveals an actual relevancy and hence a fresh error for free; the host
// keeps a bounded window of those errors per (database, query type) and
// periodically runs the two-sample Kolmogorov–Smirnov test against a
// reference sample reconstructed from the trained ED. A failed test
// means the collection has drifted from what the model was trained on —
// exactly when E[Cor] silently mis-calibrates — and comes back from
// Observe as the alert that schedules a refresh.
const (
	// driftWindow bounds the fresh observations kept per key; older ones
	// are evicted first-in-first-out.
	driftWindow = 64
	// driftMinSamples is the window occupancy the first test needs.
	driftMinSamples = 32
	// driftInterval is how many new observations separate two tests of
	// one key once driftMinSamples is met.
	driftInterval = 16
	// driftAlpha is the KS p-value below which a test counts as drift.
	// Fresh observations are quantized to the ED's bin midpoints and
	// tested against a reference replicated from the same midpoints, so
	// both samples share one discrete support and the discrete-data KS
	// p-value errs conservative; the strict level also absorbs APro's
	// probe-selection bias.
	driftAlpha = 0.005
)

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

// driftKey identifies one monitored (database, query type).
type driftKey struct {
	db  int
	key core.TypeKey
}

// window is one key's sliding window and test bookkeeping. The host's
// mutex guards it.
type window struct {
	ref       []float64
	buf       []float64
	next      int
	sinceTest int
	tests     int64
	alerts    int64
	lastStat  float64
	lastP     float64
}

// add appends v, evicting the oldest observation once the window is
// full, and runs the KS test when the cadence calls for one. It reports
// whether a test ran and whether it rejected the reference. A sort of
// at most driftWindow floats is noise next to the probe that produced v.
func (w *window) add(v float64) (tested, drifted bool) {
	if len(w.buf) < driftWindow {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.next] = v
	}
	w.next = (w.next + 1) % driftWindow
	w.sinceTest++
	if len(w.buf) < driftMinSamples || w.sinceTest < driftInterval {
		return false, false
	}
	w.sinceTest = 0
	w.tests++
	res, err := stats.KolmogorovSmirnov(w.buf, w.ref)
	if err != nil {
		return false, false
	}
	w.lastStat, w.lastP = res.Statistic, res.PValue
	drifted = res.PValue < driftAlpha
	if drifted {
		w.alerts++
	}
	return true, drifted
}

// anchor gives database db's key a reference sample drawn from ed and an
// empty window, under mu. An ED with no observations has no reference,
// and leaves the key as it was.
func (h *Host) anchor(db int, key core.TypeKey, ed *core.ED) {
	if ref := ed.ReferenceSample(0); len(ref) > 0 {
		h.drift[driftKey{db, key}] = &window{ref: ref, buf: make([]float64, 0, driftWindow)}
	}
}

// observeDrift feeds v, the quantized fresh error, to database db's
// window for key, under mu. A failed test comes back as the alert.
func (h *Host) observeDrift(db int, key core.TypeKey, v float64) (alert refresh.Alert, ok bool) {
	w := h.drift[driftKey{db, key}]
	if w == nil {
		return alert, false
	}
	tested, drifted := w.add(v)
	if tested && h.reg != nil {
		// Labels are formatted only for a test that ran.
		lbl := obs.Labels{"db": h.names[db], "type": key.String()}
		h.reg.Counter("mp_ed_drift_tests_total", nil).Inc()
		h.reg.Gauge("mp_ed_drift_statistic", lbl).Set(w.lastStat)
		h.reg.Gauge("mp_ed_drift_pvalue", lbl).Set(w.lastP)
		if drifted {
			h.reg.Counter("mp_ed_drift_alerts_total", obs.Labels{"db": h.names[db]}).Inc()
		}
	}
	if !drifted {
		return alert, false
	}
	return refresh.Alert{DB: h.names[db], DBIdx: db, Key: key}, true
}

// DriftStatuses reports every drift-monitored (database, query type),
// sorted by database name, then query type; nil with detection off.
func (h *Host) DriftStatuses() []DriftStatus {
	h.mu.Lock()
	if h.drift == nil {
		h.mu.Unlock()
		return nil
	}
	out := make([]DriftStatus, 0, len(h.drift))
	for k, w := range h.drift {
		out = append(out, DriftStatus{
			DB: h.names[k.db], QueryType: k.key.String(),
			Samples: len(w.buf), Tests: w.tests, Alerts: w.alerts,
			LastStatistic: w.lastStat, LastPValue: w.lastP,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DB != out[j].DB {
			return out[i].DB < out[j].DB
		}
		return out[i].QueryType < out[j].QueryType
	})
	return out
}
