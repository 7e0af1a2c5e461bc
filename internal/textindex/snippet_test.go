package textindex

import (
	"strings"
	"testing"
)

func TestSnippetCentersOnMatches(t *testing.T) {
	text := "aaa bbb ccc ddd eee breast cancer fff ggg hhh iii jjj kkk lll mmm nnn ooo ppp qqq rrr"
	got := Snippet(text, "breast cancer", 6, true)
	if !strings.Contains(got, "[breast]") || !strings.Contains(got, "[cancer]") {
		t.Errorf("snippet %q does not mark matches", got)
	}
	if !strings.HasPrefix(got, "… ") || !strings.HasSuffix(got, " …") {
		t.Errorf("snippet %q missing ellipses for interior window", got)
	}
	// The window is 6 words.
	inner := strings.TrimSuffix(strings.TrimPrefix(got, "… "), " …")
	if n := len(strings.Fields(inner)); n != 6 {
		t.Errorf("window has %d words, want 6 (%q)", n, got)
	}
}

func TestSnippetStemAwareMatching(t *testing.T) {
	got := Snippet("Multiple Cancers were studied here", "cancer", 10, true)
	if !strings.Contains(got, "[Cancers]") {
		t.Errorf("stem-aware match failed: %q", got)
	}
}

func TestSnippetEdgeCases(t *testing.T) {
	if got := Snippet("", "cancer", 8, true); got != "" {
		t.Errorf("empty text → %q", got)
	}
	// No matches: the head of the document is returned.
	got := Snippet("one two three four five six seven eight nine ten", "zzz", 4, true)
	if got != "one two three four …" {
		t.Errorf("no-match snippet = %q", got)
	}
	// Text shorter than the window.
	got = Snippet("only three words", "words", 10, false)
	if got != "only three words" {
		t.Errorf("short text snippet = %q", got)
	}
	// Default window size when maxTerms <= 0.
	long := strings.Repeat("pad ", 40) + "cancer"
	got = Snippet(long, "cancer", 0, false)
	if n := len(strings.Fields(strings.Trim(got, "… "))); n > 17 {
		t.Errorf("default window too wide: %d words", n)
	}
	// Empty query: unmarked head window.
	got = Snippet("alpha beta gamma", "", 2, true)
	if got != "alpha beta …" {
		t.Errorf("empty-query snippet = %q", got)
	}
}
