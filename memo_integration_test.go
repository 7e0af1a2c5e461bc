package metaprobe

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/leakcheck"
)

// memoAttrs reads the root span's rank_* and memo_* counts.
func memoAttrs(t *testing.T, tracer *SpanTracer, traceID string) map[string]int {
	t.Helper()
	attrs := tracer.Tree(traceID)[0].Span.Attrs
	out := map[string]int{}
	for _, name := range []string{"rank_swept", "rank_skipped", "rank_abandoned", "rank_hypotheses", "rank_sets", "memo_hits", "memo_misses"} {
		v, err := strconv.Atoi(attrs[name])
		if err != nil {
			t.Fatalf("root span attribute %s = %q: %v", name, attrs[name], err)
		}
		out[name] = v
	}
	return out
}

// memoless copies sel's RDs into a selection for metric and k that
// remembers nothing: what it decides, the engine computes.
func memoless(sel *core.Selection, metric core.Metric, k int) *core.Selection {
	rds := make([]*core.RD, sel.Len())
	for i := range rds {
		rds[i] = sel.RD(i)
	}
	return core.NewSelectionFromRDs(rds, metric, k)
}

// direct answers query with the memo-less engine over the serving model:
// a selection over rows built afresh from its EDs, probed inline, no
// feedback.
func (m *Metasearcher) direct(t testing.TB, query string, k int, thr float64) core.Outcome {
	t.Helper()
	fresh := core.NewModelVersion(m.serving(), "direct", time.Time{})
	return m.engine(t, memoless(fresh.NewSelection(query, countTerms(query), Absolute, k), Absolute, k), query, thr)
}

// directOverRows is direct over what selections read: the RD rows the
// serving version has published, which under online refinement lag its
// EDs by up to an epoch of observations.
func (m *Metasearcher) directOverRows(t testing.TB, query string, k int, thr float64) core.Outcome {
	t.Helper()
	return m.engine(t, memoless(m.host.View().Fill(nil, query, countTerms(query), Absolute, k), Absolute, k), query, thr)
}

// engine runs the memo-less loop on sel, probing inline.
func (m *Metasearcher) engine(t testing.TB, sel *core.Selection, query string, thr float64) core.Outcome {
	t.Helper()
	out, err := core.APro(sel, func(i int) (float64, error) { return m.rel.Probe(m.tb.DB(i), query) }, core.Greedy{}, thr, -1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameAnswer holds a facade result to the direct engine's outcome.
func (m *Metasearcher) sameAnswer(res *SelectionResult, want core.Outcome) error {
	if !reflect.DeepEqual(res.Databases, m.names(want.Set)) || res.Certainty != want.Certainty || res.Probes != want.Probes() || res.Reached != want.Reached {
		return fmt.Errorf("got %v at %v after %d probes (reached %v), the direct engine %v at %v after %d (reached %v)",
			res.Databases, res.Certainty, res.Probes, res.Reached, m.names(want.Set), want.Certainty, want.Probes(), want.Reached)
	}
	return nil
}

// TestDecisionMemoFacade: the second sight of a query is the first one's
// answer — same set, same certainty, same probes sent — decided from the
// serving version's memo: its root span counts hits, no miss and no rank
// work, the registry and ModelInfo count the same, and a reload or a
// refresh commit starts the next version at nothing remembered.
func TestDecisionMemoFacade(t *testing.T) {
	reg := NewMetrics()
	tracer := NewSpanTracer(256)
	ms, queries := buildTestMetasearcherWith(t, &Config{Metrics: reg, Spans: tracer}, nil)
	if info := ms.ModelInfo(); !info.MemoOn || info.MemoNodes != 0 {
		t.Fatalf("a freshly trained version: memo on=%v, %d nodes", info.MemoOn, info.MemoNodes)
	}

	var first *SelectionResult
	var q string
	for _, q = range queries {
		res, err := ms.SelectWithCertainty(q, 2, Absolute, 0.95, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes >= 2 {
			first = res
			break
		}
	}
	if first == nil {
		t.Fatal("no test query probes twice at t = 0.95")
	}
	if err := ms.sameAnswer(first, ms.direct(t, q, 2, 0.95)); err != nil {
		t.Errorf("%q at first sight: %v", q, err)
	}
	again, err := ms.SelectWithCertainty(q, 2, Absolute, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Databases, first.Databases) || again.Certainty != first.Certainty || again.Probes != first.Probes {
		t.Errorf("%q repeated: %v at %v after %d probes, first %v at %v after %d",
			q, again.Databases, again.Certainty, again.Probes, first.Databases, first.Certainty, first.Probes)
	}

	was, now := memoAttrs(t, tracer, first.TraceID), memoAttrs(t, tracer, again.TraceID)
	if was["memo_hits"] != 0 || was["memo_misses"] != 2*first.Probes+1 || was["rank_sets"] == 0 {
		t.Errorf("first sight of %q (%d probes): %v", q, first.Probes, was)
	}
	if now["memo_hits"] != was["memo_misses"] || now["memo_misses"]+now["rank_swept"]+now["rank_skipped"]+now["rank_abandoned"]+now["rank_hypotheses"]+now["rank_sets"] != 0 {
		t.Errorf("second sight of %q: %v after a first sight of %v", q, now, was)
	}

	info := ms.ModelInfo()
	if !info.MemoOn || info.MemoNodes == 0 {
		t.Errorf("after selections: memo on=%v, %d nodes", info.MemoOn, info.MemoNodes)
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mp_decision_memo_hits_total " + strconv.Itoa(now["memo_hits"]),
		"mp_decision_memo_nodes " + strconv.Itoa(info.MemoNodes),
		"# HELP mp_decision_memo_misses_total ",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Reload: a new version, nothing remembered, the same answer computed.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ms.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReloadModel(path); err != nil {
		t.Fatal(err)
	}
	if info := ms.ModelInfo(); info.Source != "reload" || !info.MemoOn || info.MemoNodes != 0 {
		t.Errorf("after reload: source %q, memo on=%v, %d nodes", info.Source, info.MemoOn, info.MemoNodes)
	}
	reloaded, err := ms.SelectWithCertainty(q, 2, Absolute, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	if a := memoAttrs(t, tracer, reloaded.TraceID); a["memo_hits"] != 0 || a["memo_misses"] == 0 {
		t.Errorf("first sight on the reloaded version: %v", a)
	}
	if !reflect.DeepEqual(reloaded.Databases, first.Databases) || reloaded.Certainty != first.Certainty {
		t.Errorf("the same model reloaded answers %v at %v, before %v at %v", reloaded.Databases, reloaded.Certainty, first.Databases, first.Certainty)
	}

	// Refresh commit: the successor starts empty too.
	host := ms.host
	var key core.TypeKey
	for key = range ms.serving().DBs[0].EDs {
		break
	}
	serving, err := host.Serving(0, key)
	if err != nil || serving.ED == nil {
		t.Fatalf("serving ED for %v: %v", key, err)
	}
	if _, err := host.Commit(serving.Version, 0, key, serving.ED); err != nil {
		t.Fatal(err)
	}
	if info := ms.ModelInfo(); info.Source != "refresh" || !info.MemoOn || info.MemoNodes != 0 {
		t.Errorf("after a refresh commit: source %q, memo on=%v, %d nodes", info.Source, info.MemoOn, info.MemoNodes)
	}

	// A threshold nothing can meet is refused before any sink sees it.
	spans := tracer.Recorded()
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.5, 7} {
		if _, err := ms.SelectWithCertainty(q, 2, Absolute, bad, -1); err == nil {
			t.Errorf("threshold %v was served", bad)
		}
	}
	if got := tracer.Recorded(); got != spans {
		t.Errorf("refused thresholds recorded %d spans", got-spans)
	}
}

// TestDecisionMemoSurvivesRefinement: with online refinement a version's
// rows, and with them its memo, last one epoch of observations (64: core's
// epochObservations). Every selection is the memo-less engine's answer
// over the rows as they stood when it was filled; inside an epoch the
// second of two identical selections is decided from the memo; when the
// epoch ends the rows are the refined EDs', the memo starts over on the
// same version, and the next selection is computed from both.
func TestDecisionMemoSurvivesRefinement(t *testing.T) {
	reg := NewMetrics()
	tracer := NewSpanTracer(256)
	ms, queries := buildTestMetasearcherWith(t, &Config{Metrics: reg, Spans: tracer, OnlineRefinement: true}, nil)
	version := ms.ModelInfo().Version
	answer := func(q string) (*SelectionResult, map[string]int, core.Outcome) {
		t.Helper()
		want := ms.directOverRows(t, q, 2, 0.9) // before the selection's own probes refine the model
		res, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ms.sameAnswer(res, want); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return res, memoAttrs(t, tracer, res.TraceID), want
	}

	// Back-to-back pairs, as many as the first epoch holds: the first's
	// probes refine the EDs and leave the rows alone.
	var hot string
	var before core.Outcome
	probes := 0
	for _, q := range queries {
		first, was, rowsWere := answer(q)
		again, now, _ := answer(q)
		if probes += first.Probes + again.Probes; probes >= 64 {
			break
		}
		if err := ms.sameAnswer(again, rowsWere); err != nil {
			t.Fatalf("%q repeated inside the epoch: %v", q, err)
		}
		if first.Probes == 0 {
			continue
		}
		if now["memo_hits"] != was["memo_hits"]+was["memo_misses"] || now["memo_misses"] != 0 {
			t.Fatalf("%q repeated inside the epoch: %v after a first sight of %v", q, now, was)
		}
		hot, before = q, rowsWere
	}
	if hot == "" {
		t.Fatal("no probing pair of selections fitted the first epoch")
	}
	if hits := reg.Counter("mp_decision_memo_hits_total", nil).Value(); hits == 0 {
		t.Error("no memo hit on a refining model")
	}

	// End an epoch with observations that change hot's answer. The tree
	// holds nodes before them, so the moment it holds none is the
	// publication, with no observation pending.
	for ms.ModelInfo().MemoNodes == 0 {
		answer(hot)
	}
	for n := 0; ms.ModelInfo().MemoNodes != 0; n++ {
		if n == 64 {
			t.Fatal("64 refining observations published nothing")
		}
		if _, _, err := ms.host.Observe(n%ms.tb.Len(), hot, countTerms(hot), 1e6, true); err != nil {
			t.Fatal(err)
		}
	}
	if info := ms.ModelInfo(); !info.MemoOn || info.Version != version {
		t.Fatalf("after the publication: memo on=%v at version %d, was %d", info.MemoOn, info.Version, version)
	}
	refined := ms.direct(t, hot, 2, 0.9) // over the EDs, which the rows now equal
	if refined.Certainty == before.Certainty && refined.Probes() == before.Probes() && reflect.DeepEqual(refined.Set, before.Set) {
		t.Fatalf("%q: the refinement did not change the answer (%v at %v)", hot, refined.Set, refined.Certainty)
	}
	res, attrs, _ := answer(hot)
	if err := ms.sameAnswer(res, refined); err != nil {
		t.Errorf("%q on the republished rows: %v", hot, err)
	}
	if attrs["memo_hits"] != 0 || attrs["memo_misses"] == 0 {
		t.Errorf("%q first in its epoch: %v", hot, attrs)
	}
	if info := ms.ModelInfo(); !info.MemoOn || info.MemoNodes == 0 {
		t.Errorf("after a selection in the new epoch: memo on=%v, %d nodes", info.MemoOn, info.MemoNodes)
	}
}

// TestMemoUnderReload hammers a frozen model's memo across version
// swaps: eight goroutines answer the same queries while the same
// snapshot is reloaded over and over, so versions start, fill and are
// dropped under traffic. Every version holds the same model, so every
// answer — remembered, computed, or begun on a version already replaced —
// must be the memo-less engine's.
func TestMemoUnderReload(t *testing.T) {
	leakcheck.Check(t)
	reg := NewMetrics()
	ms, queries := buildTestMetasearcherWith(t, &Config{Metrics: reg}, nil)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ms.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	// Answers are compared against the model as reloaded from its own
	// snapshot, which is what every later version holds.
	if err := ms.ReloadModel(path); err != nil {
		t.Fatal(err)
	}
	qs := queries[:24]
	want := make([]core.Outcome, len(qs))
	for i, q := range qs {
		want[i] = ms.direct(t, q, 2, 0.9)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g*5 + n) % len(qs)
				res, err := ms.SelectWithCertaintyContext(context.Background(), qs[i], 2, Absolute, 0.9, -1)
				if err != nil {
					t.Errorf("select %q: %v", qs[i], err)
					return
				}
				if err := ms.sameAnswer(res, want[i]); err != nil {
					t.Errorf("%q under reload: %v", qs[i], err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		if err := ms.ReloadModel(path); err != nil {
			t.Fatal(err)
		}
		// Let the new version be filled and read before it is dropped.
		for spin := 0; spin < 1000 && ms.ModelInfo().MemoNodes < len(qs); spin++ {
			for _, q := range qs[:4] {
				if _, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	hits, misses := reg.Counter("mp_decision_memo_hits_total", nil).Value(), reg.Counter("mp_decision_memo_misses_total", nil).Value()
	t.Logf("%d decisions remembered, %d computed over 31 versions", hits, misses)
	if hits == 0 || misses == 0 {
		t.Errorf("memo hits %d, misses %d: the hammer raced nothing", hits, misses)
	}
}
