package summary

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/hidden/hiddentest"
	"metaprobe/internal/stats"
	"metaprobe/internal/textindex"
)

func buildLocal(t *testing.T, name string, n int) *hidden.Local {
	t.Helper()
	w := corpus.HealthWorld()
	spec := corpus.DatabaseSpec{
		Name: name, NumDocs: n, MeanDocLen: 20,
		TopicWeights:    map[string]float64{"oncology": 3, "cardiology": 1},
		ConceptAffinity: 0.5,
	}
	docs, err := w.Generate(spec, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return hidden.BuildLocal(name, docs)
}

func TestFromLocalExact(t *testing.T) {
	db := buildLocal(t, "onco", 400)
	s := FromLocal(db)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size != 400 || s.DocCount != 400 || s.Sampled {
		t.Errorf("summary header wrong: %+v", s)
	}
	// The summary df must equal the index df for every term.
	res, _ := db.Search("cancer", 0)
	if got := s.DF[textindex.Tokenize("cancer")[0]]; got < res.MatchCount {
		t.Errorf("df(cancer) = %d, < match count %d", got, res.MatchCount)
	}
	if got := s.DF["zzzz"]; got != 0 {
		t.Errorf("df(zzzz) = %d, want 0", got)
	}
}

func TestFractionAndTopTerms(t *testing.T) {
	s := &Summary{Database: "d", Size: 10, DocCount: 10, DF: map[string]int{"aa": 5, "bb": 2, "cc": 5}}
	if got := s.Fraction("aa"); got != 0.5 {
		t.Errorf("Fraction(aa) = %v, want 0.5", got)
	}
	if got := s.Fraction("zz"); got != 0 {
		t.Errorf("Fraction(zz) = %v, want 0", got)
	}
	top := s.topTerms(2)
	if len(top) != 2 || top[0] != "aa" || top[1] != "cc" {
		t.Errorf("topTerms = %v, want [aa cc] (df desc, lexicographic ties)", top)
	}
	if got := s.topTerms(10); len(got) != 3 {
		t.Errorf("topTerms(10) returned %d terms, want 3", len(got))
	}
	empty := &Summary{Database: "e"}
	if got := empty.Fraction("aa"); got != 0 {
		t.Errorf("empty Fraction = %v", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Summary{
		{},
		{Database: "d", Size: -1},
		{Database: "d", Size: 1, DocCount: 1, DF: map[string]int{"a": 2}},
		{Database: "d", Size: 1, DocCount: 1, DF: map[string]int{"a": -1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSampleSummaryApproximatesExact(t *testing.T) {
	db := buildLocal(t, "onco", 1500)
	exact := FromLocal(db)
	counting := hiddentest.NewCounting(db)
	sampled, err := Sample(counting, SampleConfig{
		SeedTerms:  []string{"cancer", "health", "treatment"},
		NumQueries: 150,
	}, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := sampled.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sampled.Sampled {
		t.Error("sampled summary not flagged")
	}
	if sampled.Size != 1500 {
		t.Errorf("estimated size %d, want exported 1500", sampled.Size)
	}
	if sampled.DocCount < 100 {
		t.Fatalf("sampled only %d docs; sampling loop too weak", sampled.DocCount)
	}
	// Fractions of common terms should be in the same ballpark as the
	// exact ones (query-based sampling is biased toward matching docs,
	// so require agreement only within a loose factor).
	for _, term := range []string{"cancer", "tumor", "heart"} {
		norm := textindex.Tokenize(term)[0]
		e := exact.Fraction(norm)
		g := sampled.Fraction(norm)
		if e == 0 {
			continue
		}
		if g == 0 || g/e > 4 || e/g > 4 {
			t.Errorf("term %q: sampled fraction %v vs exact %v (off by >4x)", term, g, e)
		}
	}
	if counting.Searches() == 0 {
		t.Error("sampling issued no searches")
	}
}

func TestSampleErrors(t *testing.T) {
	db := buildLocal(t, "onco", 100)
	rng := stats.NewRNG(1)
	if _, err := Sample(db, SampleConfig{}, rng); err == nil {
		t.Error("no seed terms should fail")
	}
	// A database without Fetcher support.
	table := hiddentest.NewTable("t", map[string]int{"x": 1})
	if _, err := Sample(table, SampleConfig{SeedTerms: []string{"x"}}, rng); err == nil {
		t.Error("non-fetcher database should fail")
	}
	// Seeds that match nothing.
	if _, err := Sample(db, SampleConfig{SeedTerms: []string{"qqqqqq"}, NumQueries: 5}, rng); err == nil {
		t.Error("unmatchable seeds should fail")
	}
}

func TestSampleOverHTTP(t *testing.T) {
	db := buildLocal(t, "onco", 500)
	srv := httptest.NewServer(hidden.NewServer(db))
	defer srv.Close()
	client := hidden.NewClient("onco-remote", srv.URL)
	sampled, err := Sample(client, SampleConfig{
		SeedTerms:  []string{"cancer", "health"},
		NumQueries: 30,
	}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.DocCount == 0 || len(sampled.DF) == 0 {
		t.Errorf("remote sampling produced empty summary: %+v", sampled)
	}
	// Client has no Sizer, so size comes from probe terms: the largest
	// single-term match count, a lower bound on the true size.
	if sampled.Size <= 0 || sampled.Size > 500 {
		t.Errorf("estimated size %d outside (0, 500]", sampled.Size)
	}
}

func TestBuildExact(t *testing.T) {
	w := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(w, corpus.HealthTestbed(0.002)[:3], 9)
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildExact(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Summaries) != 3 {
		t.Fatalf("got %d summaries", len(set.Summaries))
	}
	if set.Summaries[1].Database != tb.DB(1).Name() {
		t.Errorf("summary 1 is %s's, want %s's", set.Summaries[1].Database, tb.DB(1).Name())
	}
}

func TestBuildExactRejectsNonLocal(t *testing.T) {
	table := hiddentest.NewTable("t", nil)
	tb, err := hidden.NewTestbed([]hidden.Database{table})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildExact(tb); err == nil {
		t.Error("non-local database should fail BuildExact")
	}
}

// TestSummaryFractionsMatchIndependenceOnUncorrelatedDB sanity-checks
// the whole pipeline: on a zero-affinity database, df fractions
// multiplied together should approximate the 2-term AND match fraction.
func TestSummaryFractionsMatchIndependenceOnUncorrelatedDB(t *testing.T) {
	w := corpus.HealthWorld()
	spec := corpus.DatabaseSpec{
		Name: "indep", NumDocs: 3000, MeanDocLen: 20,
		TopicWeights:    map[string]float64{"oncology": 1},
		ConceptAffinity: 0, // independent terms
	}
	docs, err := w.Generate(spec, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	db := hidden.BuildLocal("indep", docs)
	s := FromLocal(db)

	for _, q := range [][2]string{{"tumor", "radiation"}, {"biopsy", "screening"}} {
		nt1, nt2 := textindex.Tokenize(q[0])[0], textindex.Tokenize(q[1])[0]
		pred := s.Fraction(nt1) * s.Fraction(nt2) * float64(s.Size)
		res, _ := db.Search(fmt.Sprintf("%s %s", q[0], q[1]), 0)
		actual := float64(res.MatchCount)
		if pred < 3 {
			continue // too rare for a stable ratio
		}
		ratio := actual / pred
		if math.Abs(math.Log(ratio)) > math.Log(2.0) {
			t.Errorf("query %v: independence estimate %0.1f vs actual %0.0f (ratio %0.2f)", q, pred, actual, ratio)
		}
	}
}

func TestPrune(t *testing.T) {
	s := &Summary{
		Database: "d", Size: 100, DocCount: 100, TermCount: 1000,
		DF: map[string]int{"aa": 50, "bb": 40, "cc": 30, "dd": 20, "ee": 10},
	}
	p := s.Prune(3)
	if len(p.DF) != 3 {
		t.Fatalf("pruned to %d terms, want 3", len(p.DF))
	}
	for _, term := range []string{"aa", "bb", "cc"} {
		if p.DF[term] != s.DF[term] {
			t.Errorf("term %q lost or changed: %d", term, p.DF[term])
		}
	}
	if _, kept := p.DF["ee"]; kept {
		t.Error("rare term survived pruning")
	}
	if p.Size != 100 || p.DocCount != 100 || p.TermCount != 1000 {
		t.Error("header fields not copied")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	// Non-positive or oversized budgets return a full, independent copy.
	full := s.Prune(0)
	if len(full.DF) != 5 {
		t.Errorf("full copy has %d terms", len(full.DF))
	}
	full.DF["aa"] = 1
	if s.DF["aa"] != 50 {
		t.Error("Prune shares the DF map")
	}
	if got := s.Prune(99); len(got.DF) != 5 {
		t.Errorf("oversized budget: %d terms", len(got.DF))
	}
}
