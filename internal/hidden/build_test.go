package hidden

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"metaprobe/internal/corpus"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/textindex"
)

// TestBuildTestbedMatchesPerOccurrenceTokenizing holds BuildTestbed to a
// reference built from exported API alone, one Tokenize call per term
// occurrence: every database's index must hold the same postings,
// document IDs and lengths, and every document must fetch the same text.
// The databases number their terms in the testbed's shared table and
// the reference in one of its own, so the indexes are compared term by
// term string (indexView).
func TestBuildTestbedMatchesPerOccurrenceTokenizing(t *testing.T) {
	const seed = 2004
	news := corpus.NewsgroupWorld(11)
	for _, tc := range []struct {
		name  string
		world *corpus.World
		specs []corpus.DatabaseSpec
	}{
		{"health", corpus.HealthWorld(), corpus.HealthTestbed(0.05)},
		{"newsgroups", news, corpus.NewsgroupTestbed(news, 0.01)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := BuildTestbed(tc.world, tc.specs, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range tc.specs {
				docs, err := tc.world.Generate(spec, stats.NewRNG(seed).Fork(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				ref := NewLocal(spec.Name, textindex.NewIndex())
				for _, d := range docs {
					var terms []string
					for _, term := range d.Terms {
						terms = append(terms, textindex.Tokenize(term)...)
					}
					ref.Index().AddTerms(d.ID, terms)
					ref.StoreText(strings.Join(d.Terms, " "))
				}

				got := tb.DB(i).(*Local)
				if err := got.Index().Validate(); err != nil {
					t.Errorf("%s: %v", spec.Name, err)
				}
				if !reflect.DeepEqual(indexView(got.Index()), indexView(ref.Index())) {
					t.Errorf("%s: index differs from the per-occurrence reference", spec.Name)
				}
				for _, d := range docs {
					gotText, err := got.Fetch(context.Background(), d.ID)
					wantText, _ := ref.Fetch(context.Background(), d.ID)
					if err != nil || gotText != wantText {
						t.Fatalf("%s: Fetch(%s) = %q, %v; want %q", spec.Name, d.ID, gotText, err, wantText)
					}
				}
			}
		})
	}
}

// indexView is what an index holds: each posting list (its bytes, count
// and last ordinal) under its term, read from the unexported fields
// through reflection, and the document IDs and the term count.
func indexView(ix *textindex.Index) map[string]string {
	v := reflect.ValueOf(ix).Elem()
	ids, lists := v.FieldByName("ids"), v.FieldByName("lists")
	out := map[string]string{"": fmt.Sprint(ix.TotalTerms())}
	for d := 0; d < ix.Size(); d++ {
		out[""] += " " + ix.DocID(d)
	}
	for i := 0; i < ids.Len(); i++ {
		pl := lists.Index(i)
		term := ix.Terms().Term(int32(ids.Index(i).Int()))
		out[term] = fmt.Sprintf("%x %d %d", pl.FieldByName("data").Bytes(), pl.FieldByName("n").Int(), pl.FieldByName("last").Int())
	}
	return out
}

// TestAddDocumentsLeavesSharedTablesAlone: a database of a testbed that
// adds a document with a word, and so a term, new to the tables the
// testbed's databases share copies them first. While it does, the other
// databases answer queries that name the new term; their answers, and
// the tables they share, stay as they were. Run with -race.
func TestAddDocumentsLeavesSharedTablesAlone(t *testing.T) {
	tb, err := BuildTestbed(corpus.HealthWorld(), corpus.HealthTestbed(0.01), 2004)
	if err != nil {
		t.Fatal(err)
	}
	const word = "zyxwvut" // its own term
	queries := []string{"cancer", "breast cancer", "heart disease", word, word + " cancer"}
	answers := func(db Database) string {
		var b strings.Builder
		for _, q := range queries {
			res, err := db.SearchContext(context.Background(), q, 5)
			fmt.Fprintln(&b, q, res, err)
		}
		return b.String()
	}
	grower, others := tb.DB(0).(*Local), tb.Databases()[1:]
	before := make([]string, len(others))
	for i, db := range others {
		before[i] = answers(db)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, db := range others[:2] {
		wg.Add(1)
		go func(db Database) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					answers(db)
				}
			}
		}(db)
	}
	grower.AddDocuments([]corpus.Document{{ID: "added", Terms: []string{word, "cancer"}}})
	close(done)
	wg.Wait()

	if res, err := grower.SearchContext(context.Background(), word+" cancer", 1); err != nil || res.MatchCount != 1 || len(res.Docs) != 1 || res.Docs[0].ID != "added" {
		t.Errorf("the grown database answers %q with %+v, %v", word+" cancer", res, err)
	}
	if text, err := grower.Fetch(context.Background(), "added"); err != nil || text != word+" cancer" {
		t.Errorf("Fetch(added) = %q, %v", text, err)
	}
	for i, db := range others {
		if got := answers(db); got != before[i] {
			t.Errorf("%s answers\n%s\nafter another database grew; before:\n%s", db.Name(), got, before[i])
		}
		l := db.(*Local)
		if _, ok := l.Index().Terms().ID(word); ok {
			t.Errorf("%s: its term table numbers %q", db.Name(), word)
		}
		if _, ok := l.words.ID(word); ok {
			t.Errorf("%s: its word table numbers %q", db.Name(), word)
		}
	}
}

// TestBuildTestbedLeavesNoSpareCapacity: every posting list of every
// database BuildTestbed builds is exactly as long as its capacity.
func TestBuildTestbedLeavesNoSpareCapacity(t *testing.T) {
	tb, err := BuildTestbed(corpus.HealthWorld(), corpus.HealthTestbed(0.02), 2004)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range tb.Databases() {
		if n := spareLists(db.(*Local).Index()); n > 0 {
			t.Errorf("%s: %d posting lists have spare capacity", db.Name(), n)
		}
	}
}

// spareLists counts the posting lists of ix whose bytes' capacity
// exceeds their length, reading the unexported lists through reflection.
func spareLists(ix *textindex.Index) int {
	n := 0
	lists := reflect.ValueOf(ix).Elem().FieldByName("lists")
	for i := 0; i < lists.Len(); i++ {
		if data := lists.Index(i).FieldByName("data"); data.Cap() != data.Len() {
			n++
		}
	}
	return n
}

// liveBytesPerDocCeiling bounds BenchmarkBuildTestbed's live-B/doc,
// 10 % over the 229 B/doc it reads with the posting lists held by term
// id over one term table for the testbed (260 B/doc with a term →
// list map in each index, 424 B/doc with 8-byte postings and an ID →
// slot map, 632 B/doc with a string per text and append-grown lists).
const liveBytesPerDocCeiling = 252

// BenchmarkBuildTestbed builds the benchmark's testbed: the 20 health
// databases at scale 0.1, seed 2004. It reports the heap the testbed
// keeps per document, live-B/doc: the HeapAlloc the build adds, read
// after two GCs with the testbed still referenced, and fails above
// liveBytesPerDocCeiling.
func BenchmarkBuildTestbed(b *testing.B) {
	world := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.1)
	b.ReportAllocs()
	var live float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapAfterGC()
		b.StartTimer()
		tb, err := BuildTestbed(world, specs, 2004)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		kept := heapAfterGC() - before
		docs := 0
		for _, db := range tb.Databases() {
			docs += db.(*Local).Size()
		}
		runtime.KeepAlive(tb)
		live = float64(kept) / float64(docs)
		b.StartTimer()
	}
	b.ReportMetric(live, "live-B/doc")
	if live > liveBytesPerDocCeiling {
		b.Fatalf("the testbed keeps %.0f B/doc live, over the ceiling of %d", live, liveBytesPerDocCeiling)
	}
}

// BenchmarkMatchCount counts the matches of the benchmark's training
// queries, 300 of two terms and 300 of three, on each database of the
// benchmark's testbed (the 20 health databases at scale 0.1, seed 2004)
// and reports ns/search, one query on one database. It pins the block
// length of internal/textindex's posting lists, and fails if any of
// those searches allocates.
func BenchmarkMatchCount(b *testing.B) {
	world := corpus.HealthWorld()
	tb, err := BuildTestbed(world, corpus.HealthTestbed(0.1), 2004)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := gen.Pool(stats.NewRNG(2004).Fork(1), 300, 300)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]string, len(pool))
	for i, q := range pool {
		qs[i] = q.String()
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for _, q := range qs {
			for _, db := range tb.Databases() {
				db.(*Local).Index().MatchCount(q)
			}
		}
	}); allocs != 0 {
		b.Fatalf("%d searches allocate %v objects", len(qs)*tb.Len(), allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		for _, db := range tb.Databases() {
			db.(*Local).Index().MatchCount(q)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tb.Len()), "ns/search")
}

// heapAfterGC returns the live heap after two forced GCs.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
