package textindex

import (
	"testing"
	"testing/quick"
)

// TestStemVectors covers the worked examples from Porter's 1980 paper,
// one per rule family.
func TestStemVectors(t *testing.T) {
	cases := map[string]string{
		// Step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// Step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// Step 1c
		"happy": "happi",
		"sky":   "sky",
		// Step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"digitizer":      "digit",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// Step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// Step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// Step 5
		"probate":    "probat",
		"rate":       "rate",
		"cease":      "ceas",
		"controller": "control",
		"roll":       "roll",
		// Domain words the testbed actually uses.
		"cancer":    "cancer",
		"cancers":   "cancer",
		"diabetes":  "diabet",
		"treatment": "treatment",
		"medical":   "medic",
		"medicine":  "medicin",
	}
	for in, want := range cases {
		if got := stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonAlpha(t *testing.T) {
	for _, w := range []string{"", "a", "at", "x9", "b2b2", "covid19"} {
		if got := stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

// TestStemIdempotent: stemming a stem must be stable for typical words;
// the Porter stemmer is famously not idempotent on every input, but it
// must never panic or grow the word unboundedly.
func TestStemNeverGrowsMuchAndNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		// Build a plausible lowercase word from arbitrary bytes.
		w := make([]byte, 0, len(raw))
		for _, b := range raw {
			w = append(w, 'a'+b%26)
		}
		word := string(w)
		got := stem(word)
		// The algorithm appends at most one letter ('e') net of what it
		// strips, so the result can exceed the input by at most 1.
		return len(got) <= len(word)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "hopefulness", "cancer", "metasearching", "probabilistically"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stem(words[i%len(words)])
	}
}
