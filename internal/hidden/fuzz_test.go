package hidden

import (
	"context"
	"math"
	"slices"
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
// fetches its new text, any string serves as an ID, an ID with no text
// stored is unknown, and a word new to a shared word table leaves the
// table, and every database that shares it, as they were.
func FuzzLocalText(f *testing.F) {
	f.Add("breast cancer research", "")
	f.Add(" leading", "trailing ")
	f.Add("double  space", "\xff\xfe not utf-8")
	f.Add("", " ")
	f.Add("cancer", "cancer cancer")
	f.Add("a1", "a1")
	f.Add("b1", "a2")
	f.Fuzz(func(t *testing.T, text, again string) {
		shared := textindex.NewTable()
		for _, w := range []string{"breast", "cancer", "lung"} {
			shared.Add(w)
		}
		a := newLocal("a", textindex.NewIndex(), shared.Share())
		b := newLocal("b", textindex.NewIndex(), shared.Share())
		stored := map[*Local]map[string]string{a: {}, b: {}}
		store := func(l *Local, id, text string) {
			l.Index().AddTerms(id, textindex.Tokenize(text))
			l.StoreText(text)
			stored[l][id] = text
		}
		fetch := func(l *Local, id, want string) {
			t.Helper()
			if got, err := l.Fetch(context.Background(), id); err != nil || got != want {
				t.Fatalf("%s: Fetch(%q) = %q, %v; want %q", l.Name(), id, got, err, want)
			}
		}
		fetchAll := func() {
			t.Helper()
			for l, texts := range stored {
				for id, want := range texts {
					fetch(l, id, want)
				}
			}
		}
		store(b, "b1", "lung cancer")
		store(a, "a1", text)
		store(a, "a2", again)
		fetchAll()
		store(a, "a1", again)
		fetch(a, "a1", again)
		store(b, "b2", text)
		fetchAll()
		// The fuzzed strings as IDs, stored among the others; each stored
		// again, so the index holds it twice.
		store(a, text, "cancer")
		store(a, again, "breast")
		store(a, text, again)
		fetchAll()
		for _, w := range strings.Split(text+" "+again, " ") {
			if _, ok := shared.ID(w); ok != slices.Contains([]string{"breast", "cancer", "lung"}, w) {
				t.Fatalf("the shared table numbers %q: %v", w, ok)
			}
		}
		if _, ok := stored[a]["b1"]; !ok {
			if _, err := a.Fetch(context.Background(), "b1"); err == nil {
				t.Fatal("a fetched b's document")
			}
		}
		unknown := "unknown"
		for _, ok := stored[a][unknown]; ok; _, ok = stored[a][unknown] {
			unknown += "!"
		}
		if _, err := a.Fetch(context.Background(), unknown); err == nil {
			t.Fatalf("a fetched %q, which it never stored", unknown)
		}
		// A document of no words, as BuildLocal stores one with no terms.
		a.Index().AddTerms(unknown, nil)
		if _, err := a.Fetch(context.Background(), unknown); err == nil {
			t.Fatalf("a fetched %q, which its index holds with no text stored", unknown)
		}
		a.storeWords(nil)
		fetch(a, unknown, "")
		// A text for a document the index does not hold is refused.
		defer func() {
			if recover() == nil {
				t.Fatal("StoreText took a text with every document of the index stored")
			}
		}()
		b.StoreText(text)
	})
}
