package estimate

import (
	"math"
	"testing"

	"metaprobe/internal/summary"
	"metaprobe/internal/textindex"
)

// coriSet builds three collections with controlled statistics: an
// oncology collection rich in "breast"/"cancer", a cardiology one, and
// a tiny general one.
func coriSet() *summary.Set {
	return &summary.Set{Summaries: []*summary.Summary{
		{
			Database: "onco", Size: 10000, DocCount: 10000, TermCount: 300000,
			DF: map[string]int{"breast": 2000, "cancer": 5000, "heart": 50},
		},
		{
			Database: "cardio", Size: 8000, DocCount: 8000, TermCount: 240000,
			DF: map[string]int{"heart": 4000, "cancer": 100, "breast": 10},
		},
		{
			Database: "tiny", Size: 300, DocCount: 300, TermCount: 9000,
			DF: map[string]int{"cancer": 20},
		},
	}}
}

func TestCORIRankingSanity(t *testing.T) {
	c := &CORI{tok: textindex.DefaultTokenizer()}
	set := coriSet()

	scores, err := c.Scores(set, "breast cancer")
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %v", scores)
	}
	if !(scores[0] > scores[1] && scores[0] > scores[2]) {
		t.Errorf("onco should rank first for 'breast cancer': %v", scores)
	}
	scores, err = c.Scores(set, "heart")
	if err != nil {
		t.Fatal(err)
	}
	if !(scores[1] > scores[0] && scores[1] > scores[2]) {
		t.Errorf("cardio should rank first for 'heart': %v", scores)
	}
}

func TestCORIHandComputedValue(t *testing.T) {
	// Single collection set degenerates: N=1, cf=1 for present terms,
	// I = log(1.5)/log(2).
	c := &CORI{b: 0.4, k: 200, bs: 0.75, tok: textindex.DefaultTokenizer()}
	set := &summary.Set{Summaries: []*summary.Summary{
		{Database: "only", Size: 100, DocCount: 100, TermCount: 1000,
			DF: map[string]int{"cancer": 50}},
	}}
	scores, err := c.Scores(set, "cancer")
	if err != nil {
		t.Fatal(err)
	}
	// cw = avg_cw → K = 200 exactly. T = 50/250 = 0.2,
	// I = log(1.5)/log(2) ≈ 0.58496, belief = 0.4 + 0.6·0.2·0.58496.
	want := 0.4 + 0.6*0.2*(math.Log(1.5)/math.Log(2))
	if math.Abs(scores[0]-want) > 1e-12 {
		t.Errorf("score = %.12f, want %.12f", scores[0], want)
	}
}

func TestCORIEdgeCases(t *testing.T) {
	c := NewCORI()
	set := coriSet()
	// No usable terms → zero scores.
	scores, err := c.Scores(set, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s != 0 {
			t.Errorf("empty query scored %v", scores)
			break
		}
	}
	// Unknown terms: every collection gets the default belief.
	scores, err = c.Scores(set, "zzzunknown")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if math.Abs(s-0.4) > 1e-12 {
			t.Errorf("unknown-term scores = %v, want all 0.4", scores)
			break
		}
	}
	// Empty set fails.
	if _, err := c.Scores(&summary.Set{}, "x"); err != nil {
		// expected
	} else {
		t.Error("empty set must fail")
	}
	// Duplicate query terms deduplicate.
	a, _ := c.Scores(set, "cancer")
	b, _ := c.Scores(set, "cancer cancer")
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("duplicate terms changed scores: %v vs %v", a, b)
			break
		}
	}
}

func TestCORIScoresBounded(t *testing.T) {
	c := NewCORI()
	set := coriSet()
	for _, q := range []string{"breast cancer", "heart", "cancer heart breast", "zz breast"} {
		scores, err := c.Scores(set, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scores {
			if s < 0.4-1e-12 || s > 1 {
				t.Errorf("query %q collection %d: score %v outside [0.4, 1]", q, i, s)
			}
		}
	}
}

func TestCORIWithoutWordCounts(t *testing.T) {
	// Summaries lacking TermCount (older files) still rank, with the
	// word-count normalization disabled.
	c := NewCORI()
	set := &summary.Set{Summaries: []*summary.Summary{
		{Database: "a", Size: 100, DocCount: 100, DF: map[string]int{"cancer": 80}},
		{Database: "b", Size: 100, DocCount: 100, DF: map[string]int{"cancer": 5}},
	}}
	scores, err := c.Scores(set, "cancer")
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] <= scores[1] {
		t.Errorf("df ordering lost without word counts: %v", scores)
	}
}
