package estimate

import (
	"fmt"
	"math"
	"testing"

	"metaprobe/internal/hidden"
	"metaprobe/internal/hidden/hiddentest"
	"metaprobe/internal/summary"
	"metaprobe/internal/textindex"
)

// paperSummary reproduces Example 1 / Figure 2 of the paper: db1 has
// 20 000 documents, "breast" in 2 000, "cancer" in 10 000; db2 has
// 20 000 documents, "breast" in 2 600, "cancer" in 5 000.
func paperSummaries() (*summary.Summary, *summary.Summary) {
	db1 := &summary.Summary{
		Database: "db1", Size: 20000, DocCount: 20000,
		DF: map[string]int{"breast": 2000, "cancer": 10000},
	}
	db2 := &summary.Summary{
		Database: "db2", Size: 20000, DocCount: 20000,
		DF: map[string]int{"breast": 2600, "cancer": 5000},
	}
	return db1, db2
}

// TestPaperExample1 checks the worked estimate from the paper's
// Example 1: r̂(db1, "breast cancer") = 20000 · (2000/20000) ·
// (10000/20000) = 1000 and r̂(db2) = 20000 · (2600/20000) ·
// (5000/20000) = 650.
func TestPaperExample1(t *testing.T) {
	// "breast" and "cancer" are their own stems, so the paper's
	// unstemmed vocabulary gives its numbers exactly.
	rel := NewDocFrequency()
	s1, s2 := paperSummaries()
	if got := rel.Estimate(s1, "breast cancer"); math.Abs(got-1000) > 1e-9 {
		t.Errorf("r̂(db1) = %v, want 1000", got)
	}
	if got := rel.Estimate(s2, "breast cancer"); math.Abs(got-650) > 1e-9 {
		t.Errorf("r̂(db2) = %v, want 650", got)
	}
}

// repeatedForms pairs a query with one holding the same distinct terms
// in the same order of first appearance, repeated, inflected, recased
// and mixed with a stopword: every estimator must read the two as one.
var repeatedForms = [][2]string{
	{"cancer", "cancer cancers the Cancer"},
	{"breast cancer", "Breast cancers the breast CANCER"},
}

func TestDocFrequencyEdgeCases(t *testing.T) {
	rel := NewDocFrequency()
	s1, _ := paperSummaries()
	if got := rel.Estimate(s1, ""); got != 0 {
		t.Errorf("empty query estimate = %v", got)
	}
	if got := rel.Estimate(s1, "unknown breast"); got != 0 {
		t.Errorf("unknown term estimate = %v, want 0", got)
	}
	// Duplicate terms deduplicate (AND semantics).
	single := rel.Estimate(s1, "breast")
	dup := rel.Estimate(s1, "breast breast")
	if single != dup {
		t.Errorf("duplicate term changed estimate: %v vs %v", single, dup)
	}
	for _, q := range repeatedForms {
		if a, b := rel.Estimate(s1, q[0]), rel.Estimate(s1, q[1]); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("Estimate(%q) = %v, Estimate(%q) = %v", q[0], a, q[1], b)
		}
	}
	if got := rel.Name(); got != "doc-frequency" {
		t.Errorf("Name = %q", got)
	}
}

func TestDocFrequencyProbe(t *testing.T) {
	ix := textindex.NewIndex()
	ix.AddTerms("a", textindex.Tokenize("breast cancer research"))
	ix.AddTerms("b", textindex.Tokenize("breast cancer care"))
	ix.AddTerms("c", textindex.Tokenize("cancer care"))
	db := hidden.NewLocal("d", ix)
	rel := NewDocFrequency()
	got, err := rel.Probe(db, "breast cancer")
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("Probe = %v, want 2", got)
	}
	bad := hiddentest.NewStaticError("bad", fmt.Errorf("down"))
	if _, err := rel.Probe(bad, "x"); err == nil {
		t.Error("probe of failing database should error")
	}
}

// TestEstimatorExactOnIndependentStats builds a tiny index whose two
// terms are exactly independent and verifies Eq. 1 is exact there —
// the estimator's error must come only from correlation.
func TestEstimatorExactOnIndependentStats(t *testing.T) {
	ix := textindex.NewIndex()
	// 4 docs: aa in 2 (d0, d1), bb in 2 (d1, d3): AND = 1 = 4·(2/4)·(2/4).
	ix.AddTerms("d0", textindex.Tokenize("aa xx"))
	ix.AddTerms("d1", textindex.Tokenize("aa bb"))
	ix.AddTerms("d2", textindex.Tokenize("yy zz"))
	ix.AddTerms("d3", textindex.Tokenize("bb yy"))
	s := summary.FromLocal(hidden.NewLocal("d", ix))
	rel := NewDocFrequency()
	est := rel.Estimate(s, "aa bb")
	if math.Abs(est-1) > 1e-9 {
		t.Errorf("estimate = %v, want exactly 1", est)
	}
	actual, _ := rel.Probe(hidden.NewLocal("d", ix), "aa bb")
	if actual != 1 {
		t.Errorf("actual = %v, want 1", actual)
	}
}

func TestDocSimilarity(t *testing.T) {
	rel := NewDocSimilarity()
	s1, _ := paperSummaries()
	got := rel.Estimate(s1, "breast cancer")
	if got <= 0 || got > 1 {
		t.Errorf("similarity estimate %v outside (0,1]", got)
	}
	// A query with no matching terms estimates 0.
	if got := rel.Estimate(s1, "qqqq"); got != 0 {
		t.Errorf("no-match estimate = %v", got)
	}
	if got := rel.Estimate(s1, ""); got != 0 {
		t.Errorf("empty estimate = %v", got)
	}
	// A fully covered query estimates higher than one with a missing
	// term (the missing term inflates the query norm without matching).
	full := rel.Estimate(s1, "breast cancer")
	partial := rel.Estimate(s1, "breast qqqq")
	if full <= partial {
		t.Errorf("full coverage %v should beat partial coverage %v", full, partial)
	}
	for _, q := range repeatedForms {
		if a, b := rel.Estimate(s1, q[0]), rel.Estimate(s1, q[1]); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("Estimate(%q) = %v, Estimate(%q) = %v", q[0], a, q[1], b)
		}
	}
	// A single present term is a perfect best-doc match by assumption.
	if got := rel.Estimate(s1, "breast"); math.Abs(got-1) > 1e-12 {
		t.Errorf("single-term estimate = %v, want 1", got)
	}
	if rel.Name() != "doc-similarity" {
		t.Errorf("Name = %q", rel.Name())
	}
}

func TestDocSimilarityProbe(t *testing.T) {
	ix := textindex.NewIndex()
	ix.AddTerms("a", textindex.Tokenize("breast cancer"))
	ix.AddTerms("b", textindex.Tokenize("unrelated words"))
	db := hidden.NewLocal("d", ix)
	rel := NewDocSimilarity()
	got, err := rel.Probe(db, "breast cancer")
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 1 {
		t.Errorf("probe similarity %v outside (0,1]", got)
	}
	// No matching documents → similarity 0.
	got, err = rel.Probe(db, "zzzz")
	if err != nil || got != 0 {
		t.Errorf("no-match probe = %v, %v", got, err)
	}
}

func TestDefaultConstructorsStemConsistently(t *testing.T) {
	// Queries are stemmed, so "cancers" and "cancer" estimate
	// identically.
	rel := NewDocFrequency()
	s := &summary.Summary{
		Database: "d", Size: 100, DocCount: 100,
		DF: map[string]int{textindex.Tokenize("cancers")[0]: 40},
	}
	a := rel.Estimate(s, "cancer")
	b := rel.Estimate(s, "cancers")
	if a != b || a == 0 {
		t.Errorf("stemming inconsistency: %v vs %v", a, b)
	}
	sim := NewDocSimilarity()
	if a, b := sim.Estimate(s, "cancer"), sim.Estimate(s, "cancers"); a != b || a == 0 {
		t.Errorf("similarity stemming inconsistency: %v vs %v", a, b)
	}
}
