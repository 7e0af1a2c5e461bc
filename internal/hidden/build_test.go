package hidden

import (
	"reflect"
	"runtime"
	"strings"
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
				if !reflect.DeepEqual(got.Index(), ref.Index()) {
					t.Errorf("%s: index differs from the per-occurrence reference", spec.Name)
				}
				for _, d := range docs {
					gotText, err := got.Fetch(d.ID)
					wantText, _ := ref.Fetch(d.ID)
					if err != nil || gotText != wantText {
						t.Fatalf("%s: Fetch(%s) = %q, %v; want %q", spec.Name, d.ID, gotText, err, wantText)
					}
				}
			}
		})
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
// exceeds their length, reading the unexported map through reflection.
func spareLists(ix *textindex.Index) int {
	n := 0
	it := reflect.ValueOf(ix).Elem().FieldByName("postings").MapRange()
	for it.Next() {
		if data := it.Value().FieldByName("data"); data.Cap() != data.Len() {
			n++
		}
	}
	return n
}

// liveBytesPerDocCeiling bounds BenchmarkBuildTestbed's live-B/doc,
// 10 % over the 260 B/doc it reads with the posting lists encoded as
// uvarint blocks and the texts found by a sorted permutation of slots
// (424 B/doc with 8-byte postings and an ID → slot map, 632 B/doc with
// a string per text and append-grown lists).
const liveBytesPerDocCeiling = 286

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
// length of internal/textindex's posting lists.
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
