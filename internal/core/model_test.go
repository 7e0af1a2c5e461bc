package core

import (
	"testing"

	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/hidden/hiddentest"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// buildTrainedModel constructs a small but realistic pipeline: 6
// health databases, exact summaries, 400 training queries.
func buildTrainedModel(t *testing.T) (*Model, *hidden.Testbed, []queries.Query) {
	t.Helper()
	w := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.02)[:6]
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
	train, test, err := gen.TrainTest(stats.NewRNG(31), 200, 200, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(tb, sums, estimate.NewDocFrequency(), train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return model, tb, test
}

func TestTrainBuildsEDsPerType(t *testing.T) {
	model, tb, _ := buildTrainedModel(t)
	if len(model.DBs) != tb.Len() {
		t.Fatalf("model has %d DBs, want %d", len(model.DBs), tb.Len())
	}
	for i, dm := range model.DBs {
		if dm.Name != tb.DB(i).Name() {
			t.Errorf("db %d name %q != %q", i, dm.Name, tb.DB(i).Name())
		}
		if len(dm.EDs) == 0 {
			t.Errorf("db %s has no EDs", dm.Name)
		}
		var total int64
		for key, ed := range dm.EDs {
			if ed.Observations() == 0 {
				t.Errorf("db %s type %v has empty ED", dm.Name, key)
			}
			if (key.Band == BandZero) != ed.Absolute {
				t.Errorf("db %s type %v: absolute flag mismatch", dm.Name, key)
			}
			total += ed.Observations()
		}
		if total != 400 {
			t.Errorf("db %s observed %d queries, want 400", dm.Name, total)
		}
	}
}

func TestRDForProducesValidRDs(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	for _, q := range test[:50] {
		for i := range model.DBs {
			rd, rhat := model.rdFor(i, q.String(), q.NumTerms())
			if rd == nil {
				t.Fatalf("nil RD for %q on db %d", q, i)
			}
			if err := rd.validate(); err != nil {
				t.Fatalf("invalid RD for %q on db %d: %v", q, i, err)
			}
			if rhat < 0 {
				t.Fatalf("negative estimate %v", rhat)
			}
			// With exact summaries, r̂ = 0 implies the database cannot
			// match the query (AND semantics): the RD must be an
			// impulse at 0 unless sparse-type fallback kicked in.
			if rhat == 0 && !rd.isImpulse() {
				// Acceptable only if it still has all mass at tiny values.
				if rd.Value(rd.Len()-1) > 0 && rd.prEq(0) < 0.5 {
					t.Errorf("query %q db %d: r̂=0 but RD=%v", q, i, rd)
				}
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	model, tb, _ := buildTrainedModel(t)
	sums := model.Summaries
	rel := estimate.NewDocFrequency()
	if _, err := Train(tb, sums, rel, nil, DefaultConfig()); err == nil {
		t.Error("no training queries must fail")
	}
	short := &summary.Set{Summaries: sums.Summaries[:2]}
	if _, err := Train(tb, short, rel, []queries.Query{{Terms: []string{"a", "b"}}}, DefaultConfig()); err == nil {
		t.Error("summary/testbed length mismatch must fail")
	}
	empty, _ := hidden.NewTestbed(nil)
	if _, err := Train(empty, &summary.Set{}, rel, []queries.Query{{Terms: []string{"a"}}}, DefaultConfig()); err == nil {
		t.Error("empty testbed must fail")
	}
}

func TestTrainPropagatesProbeFailures(t *testing.T) {
	w := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.002)[:2]
	tb0, err := hidden.BuildTestbed(w, specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := summary.BuildExact(tb0)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap one database so every probe fails.
	flaky := hiddentest.NewFailEvery(tb0.DB(0), 1)
	tb, err := hidden.NewTestbed([]hidden.Database{flaky, tb0.DB(1)})
	if err != nil {
		t.Fatal(err)
	}
	train := []queries.Query{{Terms: []string{"cancer", "treatment"}}}
	if _, err := Train(tb, sums, estimate.NewDocFrequency(), train, DefaultConfig()); err == nil {
		t.Error("training against an unavailable database must fail")
	}
}

// TestRDSelectionBeatsBaseline is the paper's central claim (Figure
// 15) in miniature: on held-out queries, RD-based selection picks the
// true top-1 database at least as often as the raw term-independence
// ranking, and strictly more often over a reasonable sample.
func TestRDSelectionBeatsBaseline(t *testing.T) {
	model, tb, test := buildTrainedModel(t)
	rel := estimate.NewDocFrequency()

	baselineHits, rdHits := 0, 0
	for _, q := range test {
		qs := q.String()
		// Golden top-1 by actually querying every database.
		actual := make([]float64, tb.Len())
		for i := 0; i < tb.Len(); i++ {
			v, err := rel.Probe(tb.DB(i), qs)
			if err != nil {
				t.Fatal(err)
			}
			actual[i] = v
		}
		golden := TopKByScore(actual, 1)[0]

		sel := model.newSelection(qs, q.NumTerms(), Absolute, 1)
		if sel.BaselineSelect()[0] == golden {
			baselineHits++
		}
		set, _ := sel.Best()
		if set[0] == golden {
			rdHits++
		}
	}
	t.Logf("baseline %d/%d, RD-based %d/%d", baselineHits, len(test), rdHits, len(test))
	if rdHits < baselineHits {
		t.Errorf("RD-based selection (%d) worse than baseline (%d)", rdHits, baselineHits)
	}
}

// TestObserveAllocCap holds what one live observation costs the model
// on the heap, which ModelVersion.Observe pays on every probe: the
// estimate that classifies it allocates (tokenizing the query; 11
// objects for this query, the figure the cap scales), and filing it into
// the key's and the pooled ED allocates nothing once the key exists. The
// root package's VersionObserveProbe row also amortises the epoch's row
// publication, so it cannot hold this one.
func TestObserveAllocCap(t *testing.T) {
	model, tb, test := buildTrainedModel(t)
	q := test[0]
	actual, err := estimate.NewDocFrequency().Probe(tb.DB(0), q.String())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	estOnly := testing.AllocsPerRun(100, func() {
		model.Rel.Estimate(model.Summaries.Summaries[i%len(model.DBs)], q.String())
		i++
	})
	i = 0
	got := testing.AllocsPerRun(100, func() {
		db := i % len(model.DBs)
		i++
		if _, _, err := model.observe(db, q.String(), q.NumTerms(), actual); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("observe: %.0f allocs/op, the estimate alone %.0f", got, estOnly)
	if got > estOnly || got > 11*1.10+2 {
		t.Errorf("observe allocates %.0f objects per op: want at most the estimate's %.0f, and at most %.1f", got, estOnly, 11*1.10+2)
	}
}
