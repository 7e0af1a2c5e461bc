package hidden

import (
	"math"
	"strings"
	"testing"

	"metaprobe/internal/textindex"
)

// FuzzParseHTMLAnswerPage hardens the scraper against arbitrary pages:
// it must either parse or return an error — never panic, never return
// a negative count or a score that is not finite, which the JSON answer
// cannot carry either.
func FuzzParseHTMLAnswerPage(f *testing.F) {
	f.Add("<html><body><p>Results 1 - 2 of about <b>1,234</b> documents.</p></body></html>")
	f.Add("No documents matched your query.")
	f.Add("of about <b>12")
	f.Add(`of about <b>7</b><li><a href="/doc/x">x</a> <span class="score">0.5</span></li>`)
	f.Add(`of about <b>7</b><li><a href="/doc/x">x</a> <span class="score">oops</span></li>`)
	f.Add("")
	f.Add("of about <b>-5</b>")
	f.Add(`of about <b>7</b><li><a href="/doc/x">x</a> <span class="score">NaN</span></li>`)
	f.Add(`of about <b>7</b><li><a href="/doc/x">x</a> <span class="score">-Inf</span></li>`)
	f.Fuzz(func(t *testing.T, page string) {
		res, err := parseHTMLAnswerPage(page)
		if err != nil {
			return
		}
		if res.MatchCount < 0 {
			t.Fatalf("negative match count %d from %q", res.MatchCount, page)
		}
		for _, d := range res.Docs {
			if strings.Contains(d.ID, "<") {
				t.Fatalf("unescaped markup in doc ID %q", d.ID)
			}
			if math.IsNaN(d.Score) || math.IsInf(d.Score, 0) {
				t.Fatalf("score %v from %q", d.Score, page)
			}
		}
	})
}

// FuzzLocalText holds the text store to byte-exact round trips: any
// text comes back from Fetch as stored — empty fields, leading, trailing
// and repeated spaces and invalid UTF-8 included — an ID stored again
// fetches its new text, and a word new to a shared word table leaves the
// table, and every database that shares it, as they were.
func FuzzLocalText(f *testing.F) {
	f.Add("breast cancer research", "")
	f.Add(" leading", "trailing ")
	f.Add("double  space", "\xff\xfe not utf-8")
	f.Add("", " ")
	f.Add("cancer", "cancer cancer")
	f.Fuzz(func(t *testing.T, text, again string) {
		shared := newWordTable()
		for _, w := range []string{"breast", "cancer", "lung"} {
			shared.add(w)
		}
		a := newLocal("a", textindex.NewIndex(nil), shared)
		b := newLocal("b", textindex.NewIndex(nil), shared)
		fetch := func(l *Local, id, want string) {
			t.Helper()
			if got, err := l.Fetch(id); err != nil || got != want {
				t.Fatalf("%s: Fetch(%s) = %q, %v; want %q", l.Name(), id, got, err, want)
			}
		}
		b.StoreText("b1", "lung cancer")
		a.StoreText("a1", text)
		a.StoreText("a2", again)
		fetch(a, "a1", text)
		fetch(a, "a2", again)
		a.StoreText("a1", again)
		fetch(a, "a1", again)
		fetch(a, "a2", again)
		fetch(b, "b1", "lung cancer")
		b.StoreText("b2", text)
		fetch(b, "b2", text)
		fetch(b, "b1", "lung cancer")
		fetch(a, "a1", again)
		if len(shared.list) != 3 || len(shared.ids) != 3 {
			t.Fatalf("the shared table grew to %d words", len(shared.list))
		}
		if _, err := a.Fetch("b1"); err == nil {
			t.Fatal("a fetched b's document")
		}
		// A document of no words, as BuildLocal stores one with no terms.
		a.storeWords("a3", nil)
		fetch(a, "a3", "")
	})
}
