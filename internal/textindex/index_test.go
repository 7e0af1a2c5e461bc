package textindex

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTokenizer(t *testing.T) {
	got := Tokenize("The QUICK brown-fox, jumps; over 2 lazy dogs!")
	want := []string{"quick", "brown", "fox", "jump", "lazi", "dog"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizerStemming(t *testing.T) {
	got := Tokenize("running runner runs")
	want := []string{"run", "runner", "run"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

// TestTokenizerLengthBounds: a run of 1 or of 41 characters is dropped,
// one of 2 or of 40 kept.
func TestTokenizerLengthBounds(t *testing.T) {
	long := strings.Repeat("7", maxTermLen)
	got := Tokenize("x ab " + long + " " + long + "7")
	want := []string{"ab", long}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

// TestTokenizerUnicode: letters beyond ASCII are lowercased and kept,
// and the stemmer leaves a word holding one as it is.
func TestTokenizerUnicode(t *testing.T) {
	got := Tokenize("Café Français naïve")
	want := []string{"café", "français", "naïve"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

// TestQueryTerms: a query's terms are Tokenize's with each repeat
// dropped where it recurs, the first appearance kept in place, and
// deduplicating allocates nothing beyond tokenizing.
func TestQueryTerms(t *testing.T) {
	for _, c := range []struct {
		query string
		want  []string
	}{
		{"breast cancer", []string{"breast", "cancer"}},
		{"cancer cancers the Cancer", []string{"cancer"}},
		{"heart CANCER heart breast cancer", []string{"heart", "cancer", "breast"}},
		{"running runs runner run", []string{"run", "runner"}},
		{"the of and", nil},
		{"", nil},
	} {
		if got := QueryTerms(c.query); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("QueryTerms(%q) = %v, want %v", c.query, got, c.want)
		}
		tok := testing.AllocsPerRun(100, func() { Tokenize(c.query) })
		if got := testing.AllocsPerRun(100, func() { QueryTerms(c.query) }); got != tok {
			t.Errorf("QueryTerms(%q): %v allocations, Tokenize %v", c.query, got, tok)
		}
	}
}

// newTestIndex builds a small collection with known statistics.
func newTestIndex() *Index {
	ix := NewIndex()
	docs := []string{
		"breast cancer research",             // 0
		"breast cancer treatment options",    // 1
		"lung cancer treatment",              // 2
		"breast reconstruction surgery",      // 3
		"heart disease research",             // 4
		"cancer cancer cancer awareness",     // 5 (repeated term: tf=3)
		"breast cancer awareness month walk", // 6
	}
	for i, d := range docs {
		ix.AddTerms(fmt.Sprintf("doc%d", i), Tokenize(d))
	}
	return ix
}

func TestMatchCount(t *testing.T) {
	ix := newTestIndex()
	cases := []struct {
		q    string
		want int
	}{
		{"breast cancer", 3}, // docs 0, 1, 6
		{"cancer", 5},
		{"breast", 4},
		{"breast cancer treatment", 1},
		{"cancer cancer", 5}, // duplicate terms deduplicate
		{"nonexistent", 0},
		{"breast nonexistent", 0},
		{"", 0},
		{"the of and", 0}, // all stopwords
	}
	for _, c := range cases {
		if got := ix.MatchCount(c.q); got != c.want {
			t.Errorf("MatchCount(%q) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestMatchCountAllocatesOnlyTokenizing: counting a query's matches
// allocates exactly what tokenizing the query does, whether its terms
// are one, two or three, repeated, or missing from the index.
func TestMatchCountAllocatesOnlyTokenizing(t *testing.T) {
	ix := newTestIndex()
	ix.Compact()
	for _, q := range []string{"cancer", "breast cancer", "breast cancer treatment", "cancer breast cancer", "breast nonexistent", "heart research walk"} {
		tok := testing.AllocsPerRun(100, func() { Tokenize(q) })
		if got := testing.AllocsPerRun(100, func() { ix.MatchCount(q) }); got != tok {
			t.Errorf("MatchCount(%q): %v allocations, tokenizing it %v", q, got, tok)
		}
	}
}

// TestMatchingDocs: the AND of a query's posting lists is the ordinals
// of the documents holding every term, in increasing order.
func TestMatchingDocs(t *testing.T) {
	ix := newTestIndex()
	var buf [8]cursor
	cs := ix.queryCursors("breast cancer", buf[:0])
	var got []int32
	for nextCommon(cs) {
		got = append(got, cs[0].doc)
	}
	want := []int32{0, 1, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("matching docs = %v, want %v", got, want)
	}
}

// TestDocumentFrequency: a query word finds the posting list of its
// normalized term, whose length is the document frequency the summary
// reports; a word that normalizes away or is absent finds none.
func TestDocumentFrequency(t *testing.T) {
	ix := newTestIndex()
	df := func(word string) int {
		lists := ix.queryCursors(word, nil)
		if len(lists) != 1 {
			return 0
		}
		n := 0
		for c := lists[0]; c.next(); {
			n++
		}
		return n
	}
	if got := df("cancer"); got != 5 {
		t.Errorf("df(cancer) = %d, want 5", got)
	}
	if got := df("CANCER"); got != 5 {
		t.Errorf("df(CANCER) = %d, want 5 (normalization)", got)
	}
	if got := df("zzz"); got != 0 {
		t.Errorf("df(zzz) = %d, want 0", got)
	}
	if got := df("the"); got != 0 {
		t.Errorf("df(stopword) = %d, want 0", got)
	}
	if got := ix.VocabularyFrequencies()["cancer"]; got != df("cancer") {
		t.Errorf("VocabularyFrequencies()[cancer] = %d, the posting list %d", got, df("cancer"))
	}
}

func TestVocabularyFrequencies(t *testing.T) {
	ix := newTestIndex()
	vocab := ix.VocabularyFrequencies()
	if vocab["cancer"] != 5 || vocab["breast"] != 4 || vocab["walk"] != 1 {
		t.Errorf("vocabulary frequencies wrong: %v", vocab)
	}
}

func TestSearchRanking(t *testing.T) {
	ix := newTestIndex()
	hits := ix.Search("breast cancer", 3)
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(hits))
	}
	// Every returned doc must contain at least one query term, scores
	// must be in [0,1] and non-increasing.
	for i, h := range hits {
		if h.Score < 0 || h.Score > 1+1e-9 {
			t.Errorf("hit %d score %v outside [0,1]", i, h.Score)
		}
		if i > 0 && hits[i].Score > hits[i-1].Score {
			t.Errorf("hits not sorted: %v", hits)
		}
	}
	// doc0 ("breast cancer research") should rank above doc3 (only
	// "breast") and doc5 (only "cancer") — it has both terms.
	if hits[0].DocID != "doc0" && hits[0].DocID != "doc1" && hits[0].DocID != "doc6" {
		t.Errorf("top hit %q should contain both query terms", hits[0].DocID)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ix := newTestIndex()
	if hits := ix.Search("", 5); hits != nil {
		t.Errorf("empty query returned %v", hits)
	}
	if hits := ix.Search("zzz", 5); hits != nil {
		t.Errorf("unknown term returned %v", hits)
	}
	if hits := ix.Search("cancer", 0); hits != nil {
		t.Errorf("k=0 returned %v", hits)
	}
	if hits := ix.Search("cancer", 100); len(hits) != 5 {
		t.Errorf("k>matches returned %d hits, want 5", len(hits))
	}
}

func TestSearchAfterIncrementalAdd(t *testing.T) {
	ix := newTestIndex()
	before := ix.Search("cancer", 10)
	ix.AddTerms("new", Tokenize("cancer cancer cancer cancer cancer"))
	after := ix.Search("cancer", 10)
	if len(after) != len(before)+1 {
		t.Errorf("after add: %d hits, want %d", len(after), len(before)+1)
	}
}

// TestFirstSearchConcurrent: an index is safe for concurrent readers
// once building has finished, including the readers that arrive
// together at the first Search, which computes the document norms.
// Run with -race.
func TestFirstSearchConcurrent(t *testing.T) {
	want := newTestIndex().Search("breast cancer", 3)
	ix := newTestIndex()
	const readers = 8
	start := make(chan struct{})
	got := make([][]Hit, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = ix.Search("breast cancer", 3)
		}(g)
	}
	close(start)
	wg.Wait()
	for g, hits := range got {
		if fmt.Sprint(hits) != fmt.Sprint(want) {
			t.Errorf("reader %d got %v, want %v", g, hits, want)
		}
	}
}

func TestIndexValidate(t *testing.T) {
	ix := newTestIndex()
	if err := ix.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestCompact: compacting leaves every answer as it was and no list
// with room to grow, and a document added afterwards re-grows only the
// lists it touches, without writing over the list beside one of them in
// the arena.
func TestCompact(t *testing.T) {
	queries := []string{"breast cancer", "cancer", "research", "heart disease", "awareness walk"}
	answers := func(ix *Index) string {
		var b strings.Builder
		for _, q := range queries {
			fmt.Fprintln(&b, q, ix.MatchCount(q), ix.Search(q, 10))
		}
		return b.String()
	}
	want := answers(newTestIndex())
	ix := newTestIndex()
	ix.Compact()
	if got := answers(ix); got != want {
		t.Fatalf("compacted answers:\n%s\nwant:\n%s", got, want)
	}
	for term, pl := range ix.postings {
		if cap(pl.data) != len(pl.data) {
			t.Errorf("term %q: capacity %d for %d bytes", term, cap(pl.data), len(pl.data))
		}
	}
	if cap(ix.docIDs) != len(ix.docIDs) {
		t.Errorf("document IDs: capacity %d for %d documents", cap(ix.docIDs), len(ix.docIDs))
	}
	before := make(map[string]plist, len(ix.postings))
	for term, pl := range ix.postings {
		pl.data = slices.Clone(pl.data)
		before[term] = pl
	}
	ix.AddTerms("late", Tokenize("research research surgery"))
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	for term, pl := range ix.postings {
		old := before[term]
		switch term {
		case "research", "surgeri":
			want := append(decode(old), posting{doc: 7, tf: map[string]int32{"research": 2, "surgeri": 1}[term]})
			if got := decode(pl); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("term %q after AddTerms: %v, want %v", term, got, want)
			}
		default:
			if !reflect.DeepEqual(pl, old) || cap(pl.data) != len(pl.data) {
				t.Errorf("term %q changed by an AddTerms that does not contain it: %v (cap %d), was %v", term, pl, cap(pl.data), old)
			}
		}
	}
}

func TestAddTerms(t *testing.T) {
	ix := NewIndex()
	before := ix.TotalTerms()
	ix.AddTerms("d0", []string{"alpha", "beta", "alpha"})
	if got := ix.MatchCount("alpha beta"); got != 1 {
		t.Errorf("MatchCount = %d, want 1", got)
	}
	if n := ix.TotalTerms() - before; n != 3 {
		t.Errorf("document length = %d, want 3", n)
	}
	if ix.docIDs[0] != "d0" {
		t.Errorf("document ID = %q", ix.docIDs[0])
	}
}

// TestMatchCountAgainstLinearScan is a property test: the inverted
// index must agree with a brute-force scan over random collections.
func TestMatchCountAgainstLinearScan(t *testing.T) {
	vocab := []string{"aa", "bb", "cc", "dd", "ee"}
	f := func(docSeeds []uint16, q1, q2 uint8) bool {
		if len(docSeeds) > 30 {
			docSeeds = docSeeds[:30]
		}
		ix := NewIndex()
		docs := make([][]string, len(docSeeds))
		for i, seed := range docSeeds {
			var terms []string
			for j, v := range vocab {
				if seed&(1<<j) != 0 {
					terms = append(terms, v)
				}
			}
			docs[i] = terms
			ix.AddTerms(fmt.Sprintf("d%d", i), terms)
		}
		qterms := []string{vocab[int(q1)%len(vocab)], vocab[int(q2)%len(vocab)]}
		query := strings.Join(qterms, " ")

		want := 0
		for _, d := range docs {
			has := func(t string) bool {
				for _, dt := range d {
					if dt == t {
						return true
					}
				}
				return false
			}
			if has(qterms[0]) && has(qterms[1]) {
				want++
			}
		}
		return ix.MatchCount(query) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSearchAgainstBruteForceCosine verifies the ranked retrieval path
// against a straightforward full-scan cosine computation.
func TestSearchAgainstBruteForceCosine(t *testing.T) {
	ix := NewIndex()
	docs := []string{
		"alpha beta beta gamma",
		"alpha alpha alpha",
		"beta gamma delta",
		"gamma gamma gamma delta delta",
		"alpha beta gamma delta epsilon",
	}
	for i, d := range docs {
		ix.AddTerms(fmt.Sprintf("d%d", i), Tokenize(d))
	}
	query := "alpha gamma"
	hits := ix.Search(query, len(docs))

	// Brute force with the same weighting scheme.
	n := float64(len(docs))
	df := map[string]float64{}
	parsed := make([]map[string]float64, len(docs))
	for i, d := range docs {
		m := map[string]float64{}
		for _, t := range Tokenize(d) {
			m[t]++
		}
		parsed[i] = m
		for t := range m {
			df[t]++
		}
	}
	qv := map[string]float64{}
	for _, t := range Tokenize(query) {
		qv[t]++
	}
	var qnorm float64
	qw := map[string]float64{}
	for t, tf := range qv {
		if df[t] == 0 {
			continue
		}
		w := (1 + math.Log(tf)) * math.Log(1+n/df[t])
		qw[t] = w
		qnorm += w * w
	}
	qnorm = math.Sqrt(qnorm)
	type ds struct {
		ord   int
		score float64
	}
	var want []ds
	for i, m := range parsed {
		var dot, dnorm float64
		for t, tf := range m {
			w := 1 + math.Log(tf)
			dnorm += w * w
			if qwt, ok := qw[t]; ok {
				dot += qwt * w
			}
		}
		if dot > 0 {
			want = append(want, ds{i, dot / (qnorm * math.Sqrt(dnorm))})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].score != want[j].score {
			return want[i].score > want[j].score
		}
		return want[i].ord < want[j].ord
	})
	if len(hits) != len(want) {
		t.Fatalf("got %d hits, want %d", len(hits), len(want))
	}
	for i := range hits {
		if hits[i].ordinal != want[i].ord || math.Abs(hits[i].Score-want[i].score) > 1e-12 {
			t.Errorf("hit %d = (%d, %v), want (%d, %v)", i, hits[i].ordinal, hits[i].Score, want[i].ord, want[i].score)
		}
	}
}

// TestSearchDeterministicAcrossBuilds builds one collection five times
// and requires every Search answer to equal the first build's bit for
// bit: the document norms and the query's scores are float sums, so the
// order they are added in must not depend on map iteration.
func TestSearchDeterministicAcrossBuilds(t *testing.T) {
	build := func() *Index {
		ix := NewIndex()
		state := uint32(2004)
		for d := 0; d < 300; d++ {
			terms := make([]string, 40)
			for i := range terms {
				state = state*1664525 + 1013904223
				terms[i] = fmt.Sprintf("w%d", (state>>8)%200)
			}
			ix.AddTerms(fmt.Sprintf("d%d", d), terms)
		}
		return ix
	}
	queries := []string{"w1", "w1 w2", "w3 w17 w3 w150", "w5 w6 w7 w8 w9 w10", "w199 w0 w42 w42 w42"}
	first := build()
	for rebuild := 1; rebuild < 5; rebuild++ {
		ix := build()
		for _, q := range queries {
			want, got := first.Search(q, 50), ix.Search(q, 50)
			if len(got) != len(want) {
				t.Fatalf("build %d, %q: %d hits, the first build %d", rebuild, q, len(got), len(want))
			}
			for i := range got {
				if got[i].ordinal != want[i].ordinal || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("build %d, %q, hit %d: (%d, %x), the first build (%d, %x)", rebuild, q, i,
						got[i].ordinal, math.Float64bits(got[i].Score), want[i].ordinal, math.Float64bits(want[i].Score))
				}
			}
		}
	}
}

// TestCountsCarryNothingToTheNextDocument indexes a 40-term document
// with repeats, then a 3-term one: the second document's postings, term
// frequencies and length must be those a fresh index gives it, so the
// counting scratch is empty again between documents.
func TestCountsCarryNothingToTheNextDocument(t *testing.T) {
	long := make([]string, 40)
	for i := range long {
		long[i] = fmt.Sprintf("t%d", i%10) // ten terms, four times each
	}
	short := []string{"t1", "t2", "t2"}
	// docPostings returns every term the index posts for document ord,
	// with its tf.
	docPostings := func(ix *Index, ord int32) map[string]int32 {
		out := map[string]int32{}
		for term, pl := range ix.postings {
			for _, p := range decode(pl) {
				if p.doc == ord {
					out[term] = p.tf
				}
			}
		}
		return out
	}
	t.Run("AddTerms", func(t *testing.T) {
		ix := NewIndex()
		ix.AddTerms("long", long)
		afterLong := ix.TotalTerms()
		ix.AddTerms("short", short)
		fresh := NewIndex()
		fresh.AddTerms("short", short)

		got, want := docPostings(ix, 1), docPostings(fresh, 0)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("second document's postings %v, a fresh index's %v", got, want)
		}
		if n := ix.TotalTerms() - afterLong; n != fresh.TotalTerms() {
			t.Errorf("document length = %d, a fresh index's %d", n, fresh.TotalTerms())
		}
		if got := docPostings(ix, 0)["t1"]; got != 4 {
			t.Errorf("first document's tf(t1) = %d, want 4", got)
		}
		for _, x := range []*Index{ix, fresh} {
			if err := x.Validate(); err != nil {
				t.Error(err)
			}
		}
	})
}

func BenchmarkSearch(b *testing.B) {
	ix := NewIndex()
	for i := 0; i < 5000; i++ {
		ix.AddTerms(fmt.Sprintf("d%d", i), Tokenize(fmt.Sprintf("term%d cancer breast term%d health", i%50, i%7)))
	}
	ix.Search("warmup", 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Search("breast cancer health", 10)
	}
}
