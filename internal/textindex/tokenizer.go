// Package textindex implements the full-text retrieval substrate that
// every simulated Hidden-Web database in metaprobe is built on: one
// text normaliser (English stopword removal and the classic Porter
// stemmer) and an inverted index supporting boolean-AND match counting
// (the paper's document-frequency relevancy, Section 2.1) and tf·idf
// cosine ranking (the paper's document-similarity relevancy).
//
// The package is deliberately self-contained — the paper's testbed
// consists of real search engines over free-text collections, and this
// package plays that role for the synthetic collections.
package textindex

import (
	"slices"
	"strings"
	"unicode"
)

// minTermLen and maxTermLen bound the length in bytes of a kept term:
// a longer run is dropped before stemming, a shorter stem after it.
const (
	minTermLen = 2
	maxTermLen = 40
)

// Tokenize splits text into normalized terms: lowercase alphanumeric
// runs, stopwords removed, Porter-stemmed. It is the one normalisation:
// summaries, indexes and queries all go through it, so an estimate and
// the probe that corrects it count the same terms.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) < minTermLen || len(tok) > maxTermLen || isStopword(tok) {
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

// QueryTerms is Tokenize with repeats dropped, each term kept where it
// first appears: a query's terms for boolean AND and for the
// estimators. It deduplicates in place, allocating nothing beyond what
// Tokenize does.
func QueryTerms(query string) []string {
	terms := Tokenize(query)
	out := terms[:0]
	for _, t := range terms {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
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
