package obs

import "sync"

// StageTotals accumulates one hot-path stage's contribution to a
// selection: total wall time and how many intervals were recorded.
type StageTotals struct {
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// StageRecorder aggregates per-stage timings for one selection. Its
// Observe method matches core.StageObserver, so metaprobe binds one
// recorder per selection via Selection.WithStageObserver, then
// flushes the totals into the mp_selection_stage_seconds histogram and the
// root span's events when the selection ends. A mutex (not atomics)
// keeps it simple: stages are recorded a handful of times per probe
// step, far off any fast path.
type StageRecorder struct {
	mu     sync.Mutex
	totals map[string]*StageTotals
}

// NewStageRecorder returns an empty recorder.
func NewStageRecorder() *StageRecorder {
	return &StageRecorder{totals: make(map[string]*StageTotals)}
}

// Observe records one stage interval (signature-compatible with
// core.StageObserver). Safe on a nil recorder.
func (r *StageRecorder) Observe(stage string, seconds float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t, ok := r.totals[stage]
	if !ok {
		t = &StageTotals{}
		r.totals[stage] = t
	}
	t.Seconds += seconds
	t.Count++
	r.mu.Unlock()
}

// Totals returns a copy of the accumulated per-stage totals.
func (r *StageRecorder) Totals() map[string]StageTotals {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageTotals, len(r.totals))
	for k, v := range r.totals {
		out[k] = *v
	}
	return out
}
