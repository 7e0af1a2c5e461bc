package eval

import (
	"fmt"
	"testing"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/hidden/hiddentest"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

func TestCorrectnessMetrics(t *testing.T) {
	cases := []struct {
		sel, top   []int
		corA, corP float64
	}{
		{[]int{1, 3, 5}, []int{1, 3, 5}, 1, 1},
		{[]int{1, 3, 5}, []int{1, 3, 6}, 0, 2.0 / 3},
		{[]int{0}, []int{4}, 0, 0},
		{[]int{4}, []int{4}, 1, 1},
		{[]int{1, 2}, []int{2, 3}, 0, 0.5},
		{nil, nil, 1, 0},
	}
	for _, c := range cases {
		if got := CorA(c.sel, c.top); got != c.corA {
			t.Errorf("CorA(%v, %v) = %v, want %v", c.sel, c.top, got, c.corA)
		}
		if got := CorP(c.sel, c.top); got != c.corP {
			t.Errorf("CorP(%v, %v) = %v, want %v", c.sel, c.top, got, c.corP)
		}
	}
	// Example from Section 3.2: DB³ containing 2 of the top 3 → 2/3.
	if got := CorP([]int{0, 1, 2}, []int{1, 2, 9}); got != 2.0/3 {
		t.Errorf("partial credit = %v, want 2/3", got)
	}
}

func TestGoldenTopK(t *testing.T) {
	g := Golden{Actual: []float64{5, 9, 9, 1}}
	if got := fmt.Sprint(g.TopK(1)); got != "[1]" {
		t.Errorf("TopK(1) = %v (tie to lower index)", got)
	}
	if got := fmt.Sprint(g.TopK(2)); got != "[1 2]" {
		t.Errorf("TopK(2) = %v", got)
	}
	if got := fmt.Sprint(g.TopK(3)); got != "[0 1 2]" {
		t.Errorf("TopK(3) = %v", got)
	}
}

func TestBuildGoldenAndScore(t *testing.T) {
	w := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(w, corpus.HealthTestbed(0.005)[:4], 17)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(w, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Pool(stats.NewRNG(5), 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	rel := estimate.NewDocFrequency()
	golden, err := BuildGolden(tb, rel, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 60 {
		t.Fatalf("golden entries = %d", len(golden))
	}
	for _, g := range golden {
		if len(g.Actual) != tb.Len() {
			t.Fatalf("golden row has %d values", len(g.Actual))
		}
	}

	// A perfect oracle scores 1/1.
	oracle := func(q queries.Query) ([]int, int, error) {
		for _, g := range golden {
			if g.Query.String() == q.String() {
				return g.TopK(2), 0, nil
			}
		}
		return nil, 0, fmt.Errorf("unknown query %q", q)
	}
	score, err := Score(golden, 2, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if score.AvgCorA != 1 || score.AvgCorP != 1 || score.AvgProbes != 0 {
		t.Errorf("oracle score = %+v", score)
	}

	// A fixed wrong-ish method scores strictly less.
	fixed := func(q queries.Query) ([]int, int, error) { return []int{0, 1}, 3, nil }
	score, err = Score(golden, 2, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if score.AvgCorA >= 1 {
		t.Errorf("fixed method suspiciously perfect: %+v", score)
	}
	if score.AvgProbes != 3 {
		t.Errorf("AvgProbes = %v, want 3", score.AvgProbes)
	}

	// Baseline via summaries must be between 0 and 1 and the estimator
	// must at least beat the constant method on partial correctness.
	sums, err := summary.BuildExact(tb)
	if err != nil {
		t.Fatal(err)
	}
	baseline := func(q queries.Query) ([]int, int, error) {
		ests := make([]float64, tb.Len())
		for i := range ests {
			ests[i] = rel.Estimate(sums.Summaries[i], q.String())
		}
		return core.TopKByScore(ests, 2), 0, nil
	}
	bs, err := Score(golden, 2, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bs.AvgCorP <= 0 || bs.AvgCorP > 1 {
		t.Errorf("baseline partial correctness %v out of range", bs.AvgCorP)
	}
}

func TestScoreErrors(t *testing.T) {
	if _, err := Score(nil, 1, func(queries.Query) ([]int, int, error) { return nil, 0, nil }); err == nil {
		t.Error("empty golden must fail")
	}
	golden := []Golden{{Query: queries.Query{Terms: []string{"a"}}, Actual: []float64{1, 2}}}
	failing := func(queries.Query) ([]int, int, error) { return nil, 0, fmt.Errorf("boom") }
	if _, err := Score(golden, 1, failing); err == nil {
		t.Error("selector errors must propagate")
	}
}

func TestBuildGoldenPropagatesFailures(t *testing.T) {
	bad := hiddentest.NewStaticError("bad", fmt.Errorf("down"))
	tb, err := hidden.NewTestbed([]hidden.Database{bad})
	if err != nil {
		t.Fatal(err)
	}
	qs := []queries.Query{{Terms: []string{"a", "b"}}}
	if _, err := BuildGolden(tb, estimate.NewDocFrequency(), qs); err == nil {
		t.Error("failing database must fail golden build")
	}
}
