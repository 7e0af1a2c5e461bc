package corpus

import (
	"reflect"
	"strings"
	"testing"

	"metaprobe/internal/stats"
)

func TestNewWorldValidation(t *testing.T) {
	good := []Topic{{Name: "a", Terms: []string{"x", "y"}}}
	bg := []string{"bg"}
	if _, err := newWorld(nil, bg); err == nil {
		t.Error("no topics should fail")
	}
	if _, err := newWorld(good, nil); err == nil {
		t.Error("no background should fail")
	}
	if _, err := newWorld([]Topic{{Name: "a"}}, bg); err == nil {
		t.Error("topic without terms should fail")
	}
	if _, err := newWorld([]Topic{{Name: "a", Terms: []string{"x"}, Concepts: [][]string{{"solo"}}}}, bg); err == nil {
		t.Error("1-term concept should fail")
	}
	if _, err := newWorld(good, bg); err != nil {
		t.Errorf("valid world failed: %v", err)
	}
}

func TestGenerateValidation(t *testing.T) {
	w := mustWorld([]Topic{{Name: "a", Terms: []string{"x", "y"}}}, []string{"bg"})
	rng := stats.NewRNG(1)
	cases := []DatabaseSpec{
		{Name: "bad", NumDocs: 0, MeanDocLen: 10, TopicWeights: map[string]float64{"a": 1}},
		{Name: "bad", NumDocs: 5, MeanDocLen: 0, TopicWeights: map[string]float64{"a": 1}},
		{Name: "bad", NumDocs: 5, MeanDocLen: 10, TopicWeights: map[string]float64{"zzz": 1}},
		{Name: "bad", NumDocs: 5, MeanDocLen: 10, TopicWeights: map[string]float64{"a": -1}},
		{Name: "bad", NumDocs: 5, MeanDocLen: 10, TopicWeights: map[string]float64{"a": 0}},
		{Name: "bad", NumDocs: 5, MeanDocLen: 10, TopicWeights: map[string]float64{"a": 1}, ConceptAffinity: 1.5},
	}
	for i, spec := range cases {
		if _, err := w.Generate(spec, rng); err == nil {
			t.Errorf("case %d: want error for %+v", i, spec)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	w := HealthWorld()
	rng := stats.NewRNG(7)
	spec := DatabaseSpec{
		Name:            "test",
		NumDocs:         200,
		MeanDocLen:      40,
		TopicWeights:    map[string]float64{"oncology": 1},
		ConceptAffinity: 0.4,
	}
	docs, err := w.Generate(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 200 {
		t.Fatalf("got %d docs, want 200", len(docs))
	}
	totalLen := 0
	ids := map[string]bool{}
	for _, d := range docs {
		if len(d.Terms) < 3 {
			t.Fatalf("doc %s has %d terms", d.ID, len(d.Terms))
		}
		if ids[d.ID] {
			t.Fatalf("duplicate doc id %s", d.ID)
		}
		ids[d.ID] = true
		totalLen += len(d.Terms)
	}
	avg := float64(totalLen) / 200
	if avg < 30 || avg > 50 {
		t.Errorf("average doc length %v, want ≈40", avg)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	w := HealthWorld()
	spec := HealthTestbed(0.01)[0]
	a, err := w.Generate(spec, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Generate(spec, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
}

// TestConceptAffinityCreatesCorrelation is the load-bearing property of
// the whole testbed: with high concept affinity, concept terms co-occur
// far more often than independence predicts; with zero affinity they
// are nearly independent. This is what makes the term-independence
// estimator's error database-dependent.
func TestConceptAffinityCreatesCorrelation(t *testing.T) {
	w := HealthWorld()
	measure := func(affinity float64) float64 {
		rng := stats.NewRNG(11)
		spec := DatabaseSpec{
			Name:            "corr",
			NumDocs:         4000,
			MeanDocLen:      20,
			TopicWeights:    map[string]float64{"oncology": 1},
			ConceptAffinity: affinity,
		}
		docs, err := w.Generate(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Count df(bone), df(marrow), df(bone AND marrow); this pair is
		// a concept of the oncology topic and neither term belongs to
		// other concepts, so its lift isolates the affinity knob.
		var dfA, dfB, dfAB int
		for _, d := range docs {
			hasA, hasB := false, false
			for _, term := range d.Terms {
				if term == "bone" {
					hasA = true
				}
				if term == "marrow" {
					hasB = true
				}
			}
			if hasA {
				dfA++
			}
			if hasB {
				dfB++
			}
			if hasA && hasB {
				dfAB++
			}
		}
		n := float64(len(docs))
		indep := float64(dfA) / n * float64(dfB) / n * n
		if indep == 0 {
			t.Fatal("terms never occurred; vocabulary wiring broken")
		}
		return float64(dfAB) / indep // lift: 1 = independent, >1 = correlated
	}
	low := measure(0)
	high := measure(0.6)
	if high < 3 {
		t.Errorf("lift at affinity 0.6 = %v; expected strong correlation (>3)", high)
	}
	if low > 1.5 {
		t.Errorf("lift at affinity 0 = %v; expected near-independence", low)
	}
}

func TestHealthTestbedShape(t *testing.T) {
	specs := HealthTestbed(1)
	if len(specs) != 20 {
		t.Fatalf("got %d specs, want 20", len(specs))
	}
	counts := map[string]int{}
	minDocs, maxDocs := specs[0].NumDocs, specs[0].NumDocs
	w := HealthWorld()
	for _, s := range specs {
		counts[s.Category]++
		if s.NumDocs < minDocs {
			minDocs = s.NumDocs
		}
		if s.NumDocs > maxDocs {
			maxDocs = s.NumDocs
		}
		for topic := range s.TopicWeights {
			if w.topicIndex(topic) < 0 {
				t.Errorf("database %s references unknown topic %q", s.Name, topic)
			}
		}
	}
	if counts["health"] != 13 || counts["science"] != 4 || counts["news"] != 3 {
		t.Errorf("category mix = %v, want 13 health / 4 science / 3 news", counts)
	}
	// Paper: sizes range from 300 to 160 000 at full scale.
	if minDocs != 300 || maxDocs != 160000 {
		t.Errorf("size range [%d, %d], want [300, 160000]", minDocs, maxDocs)
	}
	// Scaling shrinks with a floor.
	small := HealthTestbed(0.001)
	for _, s := range small {
		if s.NumDocs < 50 {
			t.Errorf("scaled size %d below floor", s.NumDocs)
		}
	}
}

func TestNewsgroupWorldAndTestbed(t *testing.T) {
	w := NewsgroupWorld(3)
	if len(w.Topics) != 20 {
		t.Fatalf("got %d topics, want 20", len(w.Topics))
	}
	specs := NewsgroupTestbed(w, 0.01)
	if len(specs) != 20 {
		t.Fatalf("got %d specs, want 20", len(specs))
	}
	for i, s := range specs {
		if s.NumDocs < 50 {
			t.Errorf("spec %d size %d below floor", i, s.NumDocs)
		}
		if s.ConceptAffinity < 0.1 || s.ConceptAffinity > 0.55 {
			t.Errorf("spec %d affinity %v outside expected band", i, s.ConceptAffinity)
		}
	}
	// Determinism of the synthetic world.
	w2 := NewsgroupWorld(3)
	if w.Topics[5].Terms[10] != w2.Topics[5].Terms[10] {
		t.Error("NewsgroupWorld not deterministic")
	}
	// Different seeds differ.
	w3 := NewsgroupWorld(4)
	same := 0
	for i := 0; i < 20; i++ {
		if w.Topics[0].Terms[i] == w3.Topics[0].Terms[i] {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical vocabulary")
	}
}

func TestSyntheticVocabularyDistinct(t *testing.T) {
	rng := stats.NewRNG(1)
	words := syntheticVocabulary(rng, 500)
	seen := map[string]bool{}
	for _, w := range words {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
		if len(w) < 2 {
			t.Fatalf("degenerate word %q", w)
		}
		if strings.ToLower(w) != w {
			t.Fatalf("word %q not lowercase", w)
		}
	}
}
