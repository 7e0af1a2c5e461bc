package queries

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"metaprobe/internal/corpus"
	"metaprobe/internal/stats"
)

func testWorld() *corpus.World {
	return corpus.HealthWorld()
}

func TestOneTermCounts(t *testing.T) {
	g, err := NewGenerator(testWorld(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for _, n := range []int{1, 2, 3, 4} {
		for i := 0; i < 50; i++ {
			q, err := g.one(rng, n)
			if err != nil {
				t.Fatal(err)
			}
			if q.NumTerms() != n {
				t.Fatalf("got %d terms, want %d (%q)", q.NumTerms(), n, q)
			}
			seen := map[string]bool{}
			for _, term := range q.Terms {
				if seen[term] {
					t.Fatalf("query %q repeats a term", q)
				}
				seen[term] = true
			}
		}
	}
	if _, err := g.one(rng, 0); err == nil {
		t.Error("numTerms 0 should fail")
	}
}

func TestPoolDistinctAndComposed(t *testing.T) {
	g, err := NewGenerator(testWorld(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	pool, err := g.Pool(rng, 300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 500 {
		t.Fatalf("pool size %d, want 500", len(pool))
	}
	seen := map[string]bool{}
	var n2, n3 int
	for _, q := range pool {
		key := q.String()
		if seen[key] {
			t.Fatalf("duplicate query %q", key)
		}
		seen[key] = true
		switch q.NumTerms() {
		case 2:
			n2++
		case 3:
			n3++
		default:
			t.Fatalf("unexpected term count in %q", key)
		}
	}
	if n2 != 300 || n3 != 200 {
		t.Errorf("composition %d/%d, want 300/200", n2, n3)
	}
}

func TestTrainTestDisjointAndComposed(t *testing.T) {
	g, err := NewGenerator(testWorld(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	train, test, err := g.TrainTest(rng, 100, 100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 200 || len(test) != 200 {
		t.Fatalf("sizes %d/%d, want 200/200", len(train), len(test))
	}
	trainSet := map[string]bool{}
	for _, q := range train {
		trainSet[q.String()] = true
	}
	for _, q := range test {
		if trainSet[q.String()] {
			t.Fatalf("query %q appears in both train and test", q)
		}
	}
	count := func(qs []Query, n int) int {
		c := 0
		for _, q := range qs {
			if q.NumTerms() == n {
				c++
			}
		}
		return c
	}
	if count(train, 2) != 100 || count(train, 3) != 100 || count(test, 2) != 100 || count(test, 3) != 100 {
		t.Error("term-count composition wrong")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w := testWorld()
	g1, _ := NewGenerator(w, Config{})
	g2, _ := NewGenerator(w, Config{})
	p1, err := g1.Pool(stats.NewRNG(9), 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g2.Pool(stats.NewRNG(9), 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i].String() != p2[i].String() {
			t.Fatalf("pools differ at %d: %q vs %q", i, p1[i], p2[i])
		}
	}
}

func TestConceptFractionShowsUp(t *testing.T) {
	w := testWorld()
	g, _ := NewGenerator(w, Config{conceptFraction: 0.9})
	rng := stats.NewRNG(4)
	// With ConceptFraction 0.9, many 2-term queries should literally be
	// concept pairs such as "breast cancer".
	conceptPairs := map[string]bool{}
	for _, t := range w.Topics {
		for _, c := range t.Concepts {
			if len(c) == 2 {
				conceptPairs[strings.Join(c, " ")] = true
			}
		}
	}
	hits := 0
	const n = 300
	for i := 0; i < n; i++ {
		q, err := g.one(rng, 2)
		if err != nil {
			t.Fatal(err)
		}
		if conceptPairs[q.String()] {
			hits++
		}
	}
	if hits < n/4 {
		t.Errorf("only %d/%d queries were concept pairs; concept path looks broken", hits, n)
	}
}

func TestQueryLogRoundTrip(t *testing.T) {
	g, err := NewGenerator(testWorld(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Pool(stats.NewRNG(12), 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "queries.txt")
	var log bytes.Buffer
	if err := writeLog(&log, qs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(qs) {
		t.Fatalf("loaded %d of %d", len(loaded), len(qs))
	}
	for i := range qs {
		if qs[i].String() != loaded[i].String() {
			t.Fatalf("query %d did not round-trip: %q vs %q", i, qs[i], loaded[i])
		}
	}
}

func TestReadLogSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a trace\n\nbreast cancer\n   \nheart attack  \n# end\n"
	qs, err := readLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].String() != "breast cancer" || qs[1].String() != "heart attack" {
		t.Errorf("parsed %v", qs)
	}
}

// TestWriteLogRejectsEmptyQuery: writeLog, the inverse FuzzReadLog
// holds readLog to, refuses by index every query readLog would not
// return as written, and for each readLog indeed reads its line back
// otherwise.
func TestWriteLogRejectsEmptyQuery(t *testing.T) {
	ok := Query{Terms: []string{"breast", "#cancer"}}
	for name, bad := range map[string]Query{
		"empty query":          {},
		"empty term":           {Terms: []string{"heart", ""}},
		"term with a space":    {Terms: []string{"heart attack"}},
		"term with a newline":  {Terms: []string{"heart\nattack"}},
		"term with U+00A0":     {Terms: []string{"heart\u00a0attack"}},
		"comment marker first": {Terms: []string{"#heart", "attack"}},
		"line over the cap":    {Terms: []string{strings.Repeat("a", 1<<20)}},
	} {
		var sb strings.Builder
		err := writeLog(&sb, []Query{ok, bad})
		if err == nil || !strings.Contains(err.Error(), "query 1 ") {
			t.Errorf("%s: writeLog = %v, want an error naming query 1", name, err)
		}
		got, err := readLog(strings.NewReader(bad.String() + "\n"))
		if err == nil && len(got) == 1 && slices.Equal(got[0].Terms, bad.Terms) {
			t.Errorf("%s: readLog reads the line back as written, %v", name, got)
		}
	}
}

func TestLoadLogMissingFile(t *testing.T) {
	if _, err := LoadLog(filepath.Join(t.TempDir(), "none.txt")); err == nil {
		t.Error("missing file must fail")
	}
}
