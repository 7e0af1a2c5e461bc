// Package textindex implements the full-text retrieval substrate that
// every simulated Hidden-Web database in metaprobe is built on: a
// tokenizer with English stopword removal, the classic Porter stemmer,
// and an inverted index supporting boolean-AND match counting (the
// paper's document-frequency relevancy, Section 2.1) and tf·idf cosine
// ranking (the paper's document-similarity relevancy).
//
// The package is deliberately self-contained — the paper's testbed
// consists of real search engines over free-text collections, and this
// package plays that role for the synthetic collections.
package textindex

import (
	"strings"
	"unicode"
)

// Tokenizer converts raw text into index terms. The zero value is not
// usable; construct one with DefaultTokenizer.
type Tokenizer struct {
	cfg tokenizerConfig
}

// tokenizerConfig controls token normalization.
type tokenizerConfig struct {
	// Stem applies the Porter stemmer to each token.
	Stem bool
	// KeepStopwords disables English stopword removal.
	KeepStopwords bool
	// MinLength and MaxLength bound the length of kept tokens
	// (defaults 2 and 40).
	MinLength, MaxLength int
}

// newTokenizer returns a tokenizer with the given configuration,
// applying defaults for unset bounds.
func newTokenizer(cfg tokenizerConfig) *Tokenizer {
	if cfg.MinLength <= 0 {
		cfg.MinLength = 2
	}
	if cfg.MaxLength <= 0 {
		cfg.MaxLength = 40
	}
	return &Tokenizer{cfg: cfg}
}

// DefaultTokenizer returns the tokenizer used by the metaprobe testbed:
// lowercasing, stopword removal and Porter stemming.
func DefaultTokenizer() *Tokenizer {
	return newTokenizer(tokenizerConfig{Stem: true})
}

// Tokenize splits text into normalized terms: lowercase alphanumeric
// runs, stopwords removed, stemmed when configured.
func (t *Tokenizer) Tokenize(text string) []string {
	var out []string
	t.TokenizeTo(text, func(term string) { out = append(out, term) })
	return out
}

// TokenizeTo streams normalized terms to emit without accumulating a
// slice; the indexer uses this on large documents.
func (t *Tokenizer) TokenizeTo(text string, emit func(term string)) {
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) < t.cfg.MinLength || len(tok) > t.cfg.MaxLength {
			return
		}
		if !t.cfg.KeepStopwords && isStopword(tok) {
			return
		}
		if t.cfg.Stem {
			tok = stem(tok)
		}
		if len(tok) >= t.cfg.MinLength {
			emit(tok)
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
}

// stopwords is a standard English stopword list (the SMART subset that
// matters for short keyword queries).
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range strings.Fields(`a about above after again against all am an and any are as at
be because been before being below between both but by can did do does doing down during each few
for from further had has have having he her here hers herself him himself his how i if in into is
it its itself just me more most my myself no nor not now of off on once only or other our ours
ourselves out over own same she should so some such than that the their theirs them themselves then
there these they this those through to too under until up very was we were what when where which
while who whom why will with you your yours yourself yourselves`) {
		stopwords[w] = struct{}{}
	}
}

// isStopword reports whether the lowercase term is an English stopword.
func isStopword(term string) bool {
	_, ok := stopwords[term]
	return ok
}
