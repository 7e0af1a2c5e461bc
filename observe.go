package metaprobe

// Where a finished selection goes: the metric series it feeds and the
// attributes, step and stage events it leaves on its root span.

import (
	"encoding/json"
	"strconv"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// selectionSeries holds the selection path's series. Asking the
// registry for one builds a label map, sorts it into a key and takes the
// registry's read lock — some twenty times per request when every use
// asked — so each is resolved once, up front: per database, per stage
// and per outcome.
type selectionSeries struct {
	latency, certainty   *obs.Histogram
	selections           [2]*obs.Counter // by reached: false, true
	probes, probeErrs    []*obs.Counter  // by database
	stages               [len(core.StageTimes{})]*obs.Histogram
	memoHits, memoMisses *obs.Counter
}

// registerSelectionMetrics pre-creates the selection-path series (with
// help texts) so a metrics endpoint shows them at zero before the
// first query arrives, rather than materializing lazily, and returns
// them; nil for a nil registry.
func registerSelectionMetrics(reg *Metrics, tb *hidden.Testbed) *selectionSeries {
	if reg == nil {
		return nil
	}
	reg.Help("metaprobe_select_latency_seconds", "End-to-end latency of selection calls.")
	reg.Help("metaprobe_selections_total", "Selection calls, by whether the requested certainty was reached.")
	reg.Help("metaprobe_selection_certainty", "Expected correctness of the returned database set.")
	reg.Help("metaprobe_probes_total", "Successful live probes, per database.")
	reg.Help("metaprobe_probe_errors_total", "Failed live probes, per database.")
	reg.Help("mp_selection_stage_seconds", "Per-selection wall time spent in one hot-path stage (rd_convolve, ecor_dp, rank, probe).")
	reg.Help("mp_decision_memo_hits_total", "Selection decisions (a state's best set, a state's greedy head) read from the serving version's decision memo instead of computed.")
	reg.Help("mp_decision_memo_misses_total", "Selection decisions computed and stored in the serving version's decision memo.")
	reg.Help("mp_decision_memo_nodes", "States the serving version's decision memo holds; under online refinement it restarts at 0 with every publication of refined RD rows.")
	s := &selectionSeries{
		latency:    reg.Histogram("metaprobe_select_latency_seconds", nil),
		certainty:  reg.Histogram("metaprobe_selection_certainty", nil),
		memoHits:   reg.Counter("mp_decision_memo_hits_total", nil),
		memoMisses: reg.Counter("mp_decision_memo_misses_total", nil),
		probes:     make([]*obs.Counter, tb.Len()),
		probeErrs:  make([]*obs.Counter, tb.Len()),
	}
	for i, reached := range []string{"false", "true"} {
		s.selections[i] = reg.Counter("metaprobe_selections_total", obs.Labels{"reached": reached})
	}
	for i := range s.probes {
		lbl := obs.Labels{"db": tb.DB(i).Name()}
		s.probes[i] = reg.Counter("metaprobe_probes_total", lbl)
		s.probeErrs[i] = reg.Counter("metaprobe_probe_errors_total", lbl)
	}
	for st := range s.stages {
		s.stages[st] = reg.Histogram("mp_selection_stage_seconds", obs.Labels{"stage": core.Stage(st).String()})
	}
	return s
}

// formatFloat renders v for a span attribute so that it parses back to
// exactly v.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// observe publishes one finished selection to the configured sinks:
// the answer and the per-probe trajectory onto the root span (closing
// it), then the selection metrics. One walk over the steps feeds both
// the per-database probe counters and the span's "step" events. Client
// errors (untrained model, k out of range) never get here: the sinks
// measure serving, not caller mistakes.
func (m *Metasearcher) observe(out *SelectionResult, sp *span.Span, sel *core.Selection, res *core.Outcome, start time.Time) {
	ser := m.series
	work := sel.Work()
	if sp != nil {
		sp.SetAttr("id", out.ID)
		sp.SetAttr("estimates", m.estimatesAttr(sel))
		sp.SetAttr("initial_certainty", formatFloat(res.Initial))
		selected, _ := json.Marshal(out.Databases) // strings always marshal
		sp.SetAttr("selected", string(selected))
		sp.SetAttr("certainty", formatFloat(res.Certainty))
		sp.SetAttr("probes", strconv.Itoa(out.Probes))
		sp.SetAttr("reached", strconv.FormatBool(res.Reached))
		if res.Degraded {
			sp.SetAttr("degraded", "true")
		}
		// What the greedy sweeps paid for: a slow selection with few
		// probes and many sets is the set search, many hypotheses the
		// wide RDs, few skips a state the marginal bound cannot thin. A
		// decision the version's memo remembered is a hit and pays for
		// none of it: a selection decided before end to end reads 0 in
		// all six rank_* counts and 0 misses. The last two say how much
		// of the work was shared (core.RankWork).
		sp.SetAttr("rank_swept", strconv.Itoa(work.Swept))
		sp.SetAttr("rank_skipped", strconv.Itoa(work.Skipped))
		sp.SetAttr("rank_hypotheses", strconv.Itoa(work.Hypotheses))
		sp.SetAttr("rank_sets", strconv.Itoa(work.Sets))
		sp.SetAttr("rank_sets_shared", strconv.Itoa(work.SetsShared))
		sp.SetAttr("rank_grid_reuses", strconv.Itoa(work.GridReuses))
		sp.SetAttr("memo_hits", strconv.Itoa(work.MemoHits))
		sp.SetAttr("memo_misses", strconv.Itoa(work.MemoMisses))
		// What the loop thought out while probes were in flight (all zero
		// where probes answer faster than a rank): how many lookaheads
		// started the next probe, on every outcome or on most of the RD's
		// mass, why the others did not, and how many more starts the wide
		// ones made.
		ahead := sel.Ahead()
		sp.SetAttr("ahead_certain", strconv.Itoa(ahead.Certain))
		sp.SetAttr("ahead_probable", strconv.Itoa(ahead.Probable))
		sp.SetAttr("ahead_disagreed", strconv.Itoa(ahead.Disagreed))
		sp.SetAttr("ahead_stops", strconv.Itoa(ahead.Stops))
		sp.SetAttr("ahead_abandoned", strconv.Itoa(ahead.Abandoned))
		sp.SetAttr("ahead_wide", strconv.Itoa(ahead.Wide))
		sp.SetAttr("ahead_us", strconv.FormatInt(ahead.Time.Microseconds(), 10))
	}
	for _, step := range res.Steps {
		if ser != nil {
			if step.Err != nil {
				ser.probeErrs[step.DB].Inc()
			} else {
				ser.probes[step.DB].Inc()
			}
		}
		if sp != nil {
			kv := []string{"db", m.dbName(step.DB),
				"usefulness", formatFloat(step.Usefulness),
				"value", formatFloat(step.Value),
				"certainty_after", formatFloat(step.CertaintyAfter)}
			if step.Err != nil {
				kv = append(kv, "error", step.Err.Error())
			}
			sp.AddRecord("step", kv...)
		}
	}
	m.flushStages(sel, sp)
	sp.End()
	if ser != nil {
		ser.latency.Observe(time.Since(start).Seconds())
		reached := 0
		if res.Reached {
			reached = 1
		}
		ser.selections[reached].Inc()
		ser.certainty.Observe(res.Certainty)
		ser.memoHits.Add(int64(work.MemoHits))
		ser.memoMisses.Add(int64(work.MemoMisses))
	}
}

// estimatesAttr renders r̂(db, q) for every database as a JSON object
// in testbed order — the root span's "estimates" attribute.
func (m *Metasearcher) estimatesAttr(sel *core.Selection) string {
	b := make([]byte, 0, 32*len(m.dbKey))
	b = append(b, '{')
	for i, key := range m.dbKey {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, key...)
		b = strconv.AppendFloat(b, sel.Estimate(i), 'g', -1, 64)
	}
	return string(append(b, '}'))
}

// flushStages publishes one finished selection's stage tally: for each
// stage it crossed, an observation into the mp_selection_stage_seconds
// histogram and a "stage" event on the root span (added before End, so
// the events land in the recorded tree). A nil span is a no-op.
func (m *Metasearcher) flushStages(sel *core.Selection, sp *span.Span) {
	for st, t := range sel.Stages() {
		if t.Count == 0 {
			continue
		}
		sec := t.Time.Seconds()
		if m.series != nil {
			m.series.stages[st].Observe(sec)
		}
		sp.AddRecord("stage",
			"stage", core.Stage(st).String(),
			"seconds", strconv.FormatFloat(sec, 'g', 6, 64),
			"count", strconv.Itoa(t.Count))
	}
}
