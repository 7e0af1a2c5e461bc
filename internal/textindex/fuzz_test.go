package textindex

import (
	"slices"
	"strings"
	"testing"
	"unicode"
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

// tokenizeReference is the tokenizer as it was written before terms were
// normalised into a caller's buffer: a builder per run, and each stem
// taken from a copy of its run. FuzzNextTerm holds nextTerm to it.
func tokenizeReference(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) < minTermLen || len(tok) > maxTermLen || isStopword([]byte(tok)) {
			return
		}
		if tok = stem(tok); len(tok) >= minTermLen {
			out = append(out, tok)
		}
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// FuzzNextTerm: for any text, the terms nextTerm writes into a buffer of
// maxTermLen bytes, as MatchCount and Search read them, are exactly the
// reference tokenizer's, each written in the buffer itself, and Tokenize
// returns the same terms. The seeds hold runs whose lowercase is shorter
// in bytes (İ is two bytes, its lowercase i one) and longer (Ⱥ two, ⱥ
// three), runs just under and over maxTermLen either way, and invalid
// UTF-8.
func FuzzNextTerm(f *testing.F) {
	for _, seed := range []string{
		"The QUICK brown-fox, jumps; over 2 lazy dogs!",
		"Café Français naïve",
		"İSTANBUL İİ Ⱥb ȺȺȺ relational",
		strings.Repeat("İ", 21) + " " + strings.Repeat("İ", 41),
		strings.Repeat("Ⱥ", 13) + "x " + strings.Repeat("Ⱥ", 14),
		strings.Repeat("a", 40) + " " + strings.Repeat("b", 41) + " " + strings.Repeat("7", 41),
		strings.Repeat("relational", 4) + " " + strings.Repeat("caresses", 5) + "s",
		"\x00\xff weird bytes \xc3 the of and",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := tokenizeReference(text)
		var got []string
		var buf [maxTermLen]byte
		for term, at := nextTerm(text, 0, buf[:0]); term != nil; term, at = nextTerm(text, at, buf[:0]) {
			if &term[0] != &buf[0] {
				t.Fatalf("term %q of %q was written outside the buffer", term, text)
			}
			got = append(got, string(term))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("nextTerm(%q) reads %q, the reference %q", text, got, want)
		}
		if tok := Tokenize(text); !slices.Equal(tok, want) {
			t.Fatalf("Tokenize(%q) = %q, the reference %q", text, tok, want)
		}
	})
}
