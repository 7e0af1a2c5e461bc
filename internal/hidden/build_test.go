package hidden

import (
	"reflect"
	"testing"

	"metaprobe/internal/corpus"
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
			tok := textindex.DefaultTokenizer()
			for i, spec := range tc.specs {
				docs, err := tc.world.Generate(spec, stats.NewRNG(seed).Fork(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				ref := NewLocal(spec.Name, textindex.NewIndex(nil))
				for _, d := range docs {
					var terms []string
					for _, term := range d.Terms {
						terms = append(terms, tok.Tokenize(term)...)
					}
					ref.Index().AddTerms(d.ID, terms)
					ref.StoreText(d.ID, d.Text())
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

// BenchmarkBuildTestbed builds the benchmark's testbed: the 20 health
// databases at scale 0.1, seed 2004.
func BenchmarkBuildTestbed(b *testing.B) {
	world := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTestbed(world, specs, 2004); err != nil {
			b.Fatal(err)
		}
	}
}
