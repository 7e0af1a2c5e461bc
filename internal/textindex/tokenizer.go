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
	"unicode/utf8"
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
// the probe that corrects it count the same terms. It allocates each
// term it returns; the index's query path reads the same terms through
// nextTerm, which allocates nothing.
func Tokenize(text string) []string {
	var out []string
	var buf [maxTermLen]byte
	for term, at := nextTerm(text, 0, buf[:0]); term != nil; term, at = nextTerm(text, at, buf[:0]) {
		out = append(out, string(term))
	}
	return out
}

// QueryTerms is Tokenize with repeats dropped, each term kept where it
// first appears: a query's terms for the estimators. It deduplicates in
// place, allocating nothing beyond what Tokenize does.
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

// nextTerm reads text from byte at to its next kept term, which it
// writes over buf[:0], lowercased and stemmed, and returns with the
// byte after the run it came from; the term is nil when none is left.
// A run is a maximal run of letters and digits. It is dropped when it
// is shorter than minTermLen or longer than maxTermLen bytes once
// lowercased, or a stopword, and its stem is dropped when shorter than
// minTermLen. A stem never outgrows its run, so with maxTermLen bytes of
// room in buf it allocates nothing.
func nextTerm(text string, at int, buf []byte) ([]byte, int) {
	for at < len(text) {
		run, n := buf[:0], 0
		for at < len(text) {
			r, size := rune(text[at]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(text[at:])
			}
			at += size
			if r = fold(r); r < 0 {
				break
			}
			// A run past maxTermLen is dropped, so its bytes past it
			// are counted and not kept.
			if n += utf8.RuneLen(r); n <= maxTermLen {
				run = utf8.AppendRune(run, r)
			}
		}
		if n < minTermLen || n > maxTermLen || isStopword(run) {
			continue
		}
		if run = stemInPlace(run); len(run) >= minTermLen {
			return run, at
		}
	}
	return nil, at
}

// fold returns the lowercase of a letter or digit, and −1 for any other
// rune, which ends a run.
func fold(r rune) rune {
	switch {
	case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
		return r
	case r >= 'A' && r <= 'Z':
		return r + ('a' - 'A')
	case r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r)):
		return unicode.ToLower(r)
	}
	return -1
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
func isStopword(term []byte) bool {
	_, ok := stopwords[string(term)]
	return ok
}
