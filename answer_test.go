package metaprobe

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// answering is a relevancy definition whose live answers a test rewrites
// once armed: answer gets the call's number since arming, from 1, and the
// true answer.
type answering struct {
	Relevancy
	armed  atomic.Bool
	calls  atomic.Int64
	answer func(n int64, v float64) float64
}

func (a *answering) Probe(db Database, query string) (float64, error) {
	v, err := a.Relevancy.Probe(db, query)
	if err != nil || !a.armed.Load() {
		return v, err
	}
	return a.answer(a.calls.Add(1), v), nil
}

// edObservations sums the observations of every ED of the model.
func edObservations(m *core.Model) int64 {
	var n int64
	for _, dm := range m.DBs {
		n += dm.Pooled.Observations()
		for _, ed := range dm.EDs {
			n += ed.Observations()
		}
	}
	return n
}

// TestInvalidAnswerIsAFailedProbe: an answer that is not a finite
// relevancy ≥ 0 is a failed probe whatever the Config says. With every
// live answer NaN, −3, +Inf or −Inf, the selections of a metasearcher
// without feedback, with drift detection, with online refinement and
// with both are the same, none counts a successful probe, and no ED
// histogram or drift window receives an answer.
func TestInvalidAnswerIsAFailedProbe(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"no feedback", Config{}},
		{"drift", Config{Drift: true}},
		{"refinement", Config{OnlineRefinement: true}},
		{"both", Config{OnlineRefinement: true, Drift: true}},
	}
	type answer struct {
		Databases     []string
		Certainty     float64
		Probes        int
		ProbeFailures int
		Degraded      bool
		ExcludedDBs   []string
	}
	for _, bad := range []float64{math.NaN(), -3, math.Inf(1), math.Inf(-1)} {
		var want []answer
		for c, tc := range configs {
			rel := &answering{Relevancy: DocFrequencyRelevancy(), answer: func(int64, float64) float64 { return bad }}
			cfg := tc.cfg
			cfg.Relevancy, cfg.Model = rel, core.DefaultConfig()
			ms, qs := buildTestMetasearcherWith(t, &cfg, nil)
			trained := edObservations(ms.serving())
			rel.armed.Store(true)
			var got []answer
			failures := 0
			for _, q := range qs[:12] {
				res, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
				if err != nil {
					t.Fatalf("%v, %s: %q: %v", bad, tc.name, q, err)
				}
				if res.Probes != 0 || res.ProbeFailures != len(res.ExcludedDBs) || res.Degraded != (res.ProbeFailures > 0) {
					t.Fatalf("%v, %s: %q: %+v, want every probe failed", bad, tc.name, q, res)
				}
				failures += res.ProbeFailures
				got = append(got, answer{res.Databases, res.Certainty, res.Probes, res.ProbeFailures, res.Degraded, res.ExcludedDBs})
			}
			if rel.calls.Load() == 0 || failures == 0 {
				t.Fatalf("%v, %s: %d answers, %d failed probes; want some of each", bad, tc.name, rel.calls.Load(), failures)
			}
			if n := edObservations(ms.serving()); n != trained {
				t.Errorf("%v, %s: the EDs hold %d observations, %d after training", bad, tc.name, n, trained)
			}
			for _, s := range ms.DriftStatuses() {
				if s.Samples != 0 || s.Tests != 0 {
					t.Errorf("%v, %s: drift window %s/%s holds %d samples after %d tests", bad, tc.name, s.DB, s.QueryType, s.Samples, s.Tests)
				}
			}
			ms.Close()
			if c == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: %s selects\n%+v\nwhere %s selects\n%+v", bad, tc.name, got, configs[0].name, want)
			}
		}
	}
}

// TestRefreshDropsInvalidAnswers: the refresher's probes go through the
// same rule as a selection's. A backend that has grown tenfold answers
// one refresh probe in ten with NaN, −1 or +Inf; the task drops those as
// failed probes, trains, validates and commits on the rest, and the
// committed ED holds only finite bin sums.
func TestRefreshDropsInvalidAnswers(t *testing.T) {
	gen, err := queries.NewGenerator(corpus.HealthWorld(), queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gen.Pool(stats.NewRNG(77), 600, 600)
	if err != nil {
		t.Fatal(err)
	}
	bads := []float64{math.NaN(), -1, math.Inf(1)}
	var dropped atomic.Int64
	rel := &answering{Relevancy: DocFrequencyRelevancy(), answer: func(n int64, v float64) float64 {
		if n%10 == 0 {
			dropped.Add(1)
			return bads[n/10%3]
		}
		return 10 * v
	}}
	cfg := &Config{
		Relevancy: rel,
		Model:     core.DefaultConfig(),
		RefreshQueries: func(numTerms, n int) []string {
			var out []string
			for _, q := range pool {
				if q.NumTerms() == numTerms && len(out) < n {
					out = append(out, q.String())
				}
			}
			return out
		},
	}
	ms, _ := buildTestMetasearcherWith(t, cfg, nil)
	defer ms.Close()

	// The relative-band key of database 0 the pool holds most queries of.
	model := ms.serving()
	counts := make(map[core.TypeKey]int)
	for _, q := range pool {
		key := model.Cfg.Classifier.Classify(q.NumTerms(), model.Rel.Estimate(model.Summaries.Summaries[0], q.String()))
		if key.Band != core.BandZero {
			counts[key]++
		}
	}
	var key core.TypeKey
	for k, c := range counts {
		if c > counts[key] || (c == counts[key] && k.String() < key.String()) {
			key = k
		}
	}
	if counts[key] < 96 {
		t.Fatalf("the pool classifies %d queries as %s on database 0; want a full probe budget", counts[key], key)
	}

	rel.armed.Store(true)
	if err := ms.RefreshNow(ms.Databases()[0], key.String()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for ms.RefreshStats().LastValidation == nil && ms.RefreshStats().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the refresh task did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := ms.RefreshStats()
	val := st.LastValidation
	if st.Refreshes != 1 || val == nil || !val.Accepted {
		t.Fatalf("refresh stats %+v, validation %+v; want one commit", st, val)
	}
	if d := dropped.Load(); d == 0 || int64(val.TrainSamples+val.HoldoutSamples) != int64(val.ProbesSpent)-d {
		t.Errorf("%d probes, %d invalid answers, %d + %d samples kept; want every invalid one dropped", val.ProbesSpent, d, val.TrainSamples, val.HoldoutSamples)
	}
	ed := ms.serving().DBs[0].EDs[key]
	if ed.Observations() != int64(val.TrainSamples) {
		t.Errorf("the committed ED holds %d observations, trained on %d", ed.Observations(), val.TrainSamples)
	}
	for b, sum := range ed.Hist.Sums {
		if math.IsNaN(sum) || math.IsInf(sum, 0) {
			t.Errorf("the committed ED's bin %d sums to %v", b, sum)
		}
	}
}
