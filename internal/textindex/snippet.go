package textindex

import (
	"slices"
	"strings"
)

// Snippet extracts a short window of text around the first cluster of
// query-term matches — the preview line real answer pages show under
// each hit. Matching is done in normalized term space (so "Cancers"
// matches the query "cancer"), but the returned text is the original.
//
// maxTerms bounds the window length in whitespace tokens (default 16
// when ≤ 0). Matched regions are wrapped in the del/ins-free markers
// "[" and "]" only if mark is true.
func Snippet(text, query string, maxTerms int, mark bool) string {
	if maxTerms <= 0 {
		maxTerms = 16
	}
	queryTerms := QueryTerms(query)
	words := strings.Fields(text)
	if len(words) == 0 {
		return ""
	}
	// Normalize each word and mark matches.
	matched := make([]bool, len(words))
	if len(queryTerms) > 0 {
		for i, w := range words {
			for _, tok := range Tokenize(w) {
				if slices.Contains(queryTerms, tok) {
					matched[i] = true
					break
				}
			}
		}
	}
	// Find the window of maxTerms words containing the most matches
	// (ties: earliest).
	bestStart, bestCount := 0, -1
	count := 0
	for i := 0; i < len(words); i++ {
		if matched[i] {
			count++
		}
		if i >= maxTerms && matched[i-maxTerms] {
			count--
		}
		if i >= maxTerms-1 || i == len(words)-1 {
			start := i - maxTerms + 1
			if start < 0 {
				start = 0
			}
			if count > bestCount {
				bestStart, bestCount = start, count
			}
		}
	}
	end := bestStart + maxTerms
	if end > len(words) {
		end = len(words)
	}
	var b strings.Builder
	if bestStart > 0 {
		b.WriteString("… ")
	}
	for i := bestStart; i < end; i++ {
		if i > bestStart {
			b.WriteByte(' ')
		}
		if mark && matched[i] {
			b.WriteByte('[')
			b.WriteString(words[i])
			b.WriteByte(']')
		} else {
			b.WriteString(words[i])
		}
	}
	if end < len(words) {
		b.WriteString(" …")
	}
	return b.String()
}
