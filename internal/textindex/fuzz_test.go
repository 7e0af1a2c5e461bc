package textindex

import (
	"testing"
	"unicode/utf8"
)

// FuzzStem: the stemmer must never panic, never grow a word by more
// than one byte, and always return valid UTF-8 for valid input.
func FuzzStem(f *testing.F) {
	for _, seed := range []string{"relational", "caresses", "sky", "a", "", "covid19", "ß", "ponies"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, word string) {
		got := stem(word)
		if len(got) > len(word)+1 {
			t.Fatalf("Stem(%q) grew to %q", word, got)
		}
		if utf8.ValidString(word) && !utf8.ValidString(got) {
			t.Fatalf("Stem(%q) produced invalid UTF-8 %q", word, got)
		}
	})
}

// FuzzTokenize: tokenization must never panic and every produced token
// must satisfy the length bounds (a stem may outgrow its word by a byte).
func FuzzTokenize(f *testing.F) {
	f.Add("The QUICK brown-fox!")
	f.Add("Café 123 naïve")
	f.Add("")
	f.Add("\x00\xff weird bytes \xc3")
	f.Fuzz(func(t *testing.T, text string) {
		for _, term := range Tokenize(text) {
			if len(term) < minTermLen || len(term) > maxTermLen+1 {
				t.Fatalf("token %q violates length bounds", term)
			}
		}
	})
}
