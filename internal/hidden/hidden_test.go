package hidden

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"metaprobe/internal/corpus"
	"metaprobe/internal/textindex"
)

// fixed answers every search with res, or fails with err.
type fixed struct {
	name string
	res  Result
	err  error
}

func (f fixed) Name() string                       { return f.name }
func (f fixed) Search(string, int) (Result, error) { return f.res, f.err }

// table answers a query with its match count; unknown queries match
// nothing.
type table map[string]int

func (table) Name() string                                 { return "t" }
func (t table) Search(query string, _ int) (Result, error) { return Result{MatchCount: t[query]}, nil }

func buildSmallLocal(t *testing.T) *Local {
	t.Helper()
	ix := textindex.NewIndex()
	docs := []string{
		"breast cancer research update",
		"breast cancer treatment",
		"lung cancer study",
		"nutrition and diet",
	}
	l := NewLocal("testdb", ix)
	for i, d := range docs {
		id := fmt.Sprintf("d%d", i)
		ix.AddTerms(id, textindex.Tokenize(d))
		l.StoreText(d)
	}
	return l
}

func TestLocalSearch(t *testing.T) {
	db := buildSmallLocal(t)
	res, err := db.Search("breast cancer", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("MatchCount = %d, want 2 (AND semantics)", res.MatchCount)
	}
	// Ranked retrieval is OR-based: d2 ("lung cancer study") also scores.
	if len(res.Docs) != 3 {
		t.Errorf("got %d ranked docs, want 3", len(res.Docs))
	}
	// topK = 0: count only.
	res0, err := db.Search("breast cancer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res0.MatchCount != 2 || len(res0.Docs) != 0 {
		t.Errorf("count-only probe returned %+v", res0)
	}
	if db.Size() != 4 {
		t.Errorf("Size = %d, want 4", db.Size())
	}
	if db.Name() != "testdb" {
		t.Errorf("Name = %q", db.Name())
	}
}

// TestLocalDuplicateIDsFetchTheNewest: documents that share an ID, built
// together or added after the build, fetch the text stored last under
// it; every other ID fetches its own text, and an unknown one none.
func TestLocalDuplicateIDsFetchTheNewest(t *testing.T) {
	doc := func(id string, terms ...string) corpus.Document { return corpus.Document{ID: id, Terms: terms} }
	l := BuildLocal("dups", []corpus.Document{doc("b", "lung"), doc("a", "breast"), doc("b", "cancer", "care"), doc("c")})
	l.AddDocuments([]corpus.Document{doc("a", "heart"), doc("0", "first"), doc("b", "late")})
	for id, want := range map[string]string{"a": "heart", "b": "late", "c": "", "0": "first"} {
		if got, err := l.Fetch(id); err != nil || got != want {
			t.Errorf("Fetch(%q) = %q, %v; want %q", id, got, err, want)
		}
	}
	for _, id := range []string{"", "aa", "d"} {
		if got, err := l.Fetch(id); err == nil {
			t.Errorf("Fetch(%q) = %q for an ID never stored", id, got)
		}
	}
	if l.Size() != 7 {
		t.Errorf("Size = %d, want 7", l.Size())
	}
}

func TestBuildLocalFromCorpus(t *testing.T) {
	w := corpus.HealthWorld()
	spec := corpus.DatabaseSpec{
		Name: "onco", NumDocs: 300, MeanDocLen: 20,
		TopicWeights:    map[string]float64{"oncology": 1},
		ConceptAffinity: 0.5,
	}
	docs, err := w.Generate(spec, newSpecRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	db := BuildLocal("onco", docs)
	if db.Size() != 300 {
		t.Fatalf("Size = %d, want 300", db.Size())
	}
	res, err := db.Search("cancer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount == 0 {
		t.Error("an oncology database should match 'cancer'")
	}
	if err := db.Index().Validate(); err != nil {
		t.Error(err)
	}
}

func TestTestbed(t *testing.T) {
	a := fixed{name: "a"}
	b := fixed{name: "b"}
	tb, err := NewTestbed([]Database{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 || tb.DB(1).Name() != "b" || tb.IndexOf("b") != 1 || tb.IndexOf("zzz") != -1 {
		t.Error("testbed accessors broken")
	}
	if _, err := NewTestbed([]Database{a, fixed{name: "a"}}); err == nil {
		t.Error("duplicate names should fail")
	}
}

func TestBuildTestbedDeterministicAcrossRuns(t *testing.T) {
	w := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.002)[:4]
	tb1, err := BuildTestbed(w, specs, 7)
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := BuildTestbed(w, specs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb1.Len(); i++ {
		q := "cancer treatment"
		r1, _ := tb1.DB(i).Search(q, 0)
		r2, _ := tb2.DB(i).Search(q, 0)
		if r1.MatchCount != r2.MatchCount {
			t.Errorf("db %d: counts differ %d vs %d", i, r1.MatchCount, r2.MatchCount)
		}
	}
}

func TestEstimateSize(t *testing.T) {
	// With Sizer: direct.
	db := buildSmallLocal(t)
	if got, err := EstimateSize(db, nil); err != nil || got != 4 {
		t.Errorf("EstimateSize = %d, %v; want 4, nil", got, err)
	}
	// Without Sizer: probe with common terms.
	table := table{"health": 120, "medical": 80}
	if got, err := EstimateSize(table, []string{"health", "medical"}); err != nil || got != 120 {
		t.Errorf("EstimateSize = %d, %v; want 120, nil", got, err)
	}
	if _, err := EstimateSize(table, nil); err == nil {
		t.Error("no probe terms should fail")
	}
	bad := fixed{name: "bad", err: errors.New("boom")}
	if _, err := EstimateSize(bad, []string{"health"}); err == nil {
		t.Error("all-failing database should fail")
	}
}

func TestHTTPJSONRoundTrip(t *testing.T) {
	local := buildSmallLocal(t)
	srv := httptest.NewServer(NewServer(local))
	defer srv.Close()

	client := NewClient("remote-testdb", srv.URL)
	res, err := client.Search("breast cancer", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 || len(res.Docs) != 3 {
		t.Errorf("remote result %+v, want 2 matches / 3 ranked docs", res)
	}
	if client.Name() != "remote-testdb" {
		t.Errorf("Name = %q", client.Name())
	}
}

func TestHTTPHTMLScraping(t *testing.T) {
	local := buildSmallLocal(t)
	srv := httptest.NewServer(NewServer(local))
	defer srv.Close()

	client := NewClient("remote", srv.URL)
	client.UseHTML = true
	res, err := client.Search("breast cancer", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("scraped MatchCount = %d, want 2", res.MatchCount)
	}
	if len(res.Docs) != 2 || res.Docs[0].ID == "" {
		t.Errorf("scraped docs %+v", res.Docs)
	}
	// Zero-match page.
	res, err = client.Search("zzzz qqqq", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 0 || len(res.Docs) != 0 {
		t.Errorf("zero-match scrape = %+v", res)
	}
}

func TestHTMLAnswerPageThousands(t *testing.T) {
	big := fixed{name: "big", res: Result{MatchCount: 1234567}}
	srv := httptest.NewServer(NewServer(big))
	defer srv.Close()
	client := NewClient("big", srv.URL)
	client.UseHTML = true
	res, err := client.Search("anything", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 1234567 {
		t.Errorf("MatchCount = %d, want 1234567 (comma parsing)", res.MatchCount)
	}
}

func TestGroupThousands(t *testing.T) {
	cases := map[int]string{0: "0", 5: "5", 999: "999", 1000: "1,000", 1234567: "1,234,567", 12345: "12,345"}
	for n, want := range cases {
		if got := groupThousands(n); got != want {
			t.Errorf("groupThousands(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	local := buildSmallLocal(t)
	srv := httptest.NewServer(NewServer(local))
	defer srv.Close()

	for _, u := range []string{
		srv.URL + "/search",                          // missing q
		srv.URL + "/search?q=cancer&k=-1",            // bad k
		srv.URL + "/search?q=cancer&k=x",             // non-numeric k
		srv.URL + "/search?q=cancer&format=protobuf", // unknown format
	} {
		resp, err := srv.Client().Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", u, resp.StatusCode)
		}
	}
	// Backend failure surfaces as 502 and the client wraps it as
	// unavailable.
	bad := httptest.NewServer(NewServer(fixed{name: "bad", err: errors.New("boom")}))
	defer bad.Close()
	client := NewClient("bad", bad.URL)
	if _, err := client.Search("x", 0); !errors.Is(err, ErrUnavailable) {
		t.Errorf("want ErrUnavailable, got %v", err)
	}
}

func TestClientUnreachable(t *testing.T) {
	client := NewClient("gone", "http://127.0.0.1:1")
	if _, err := client.Search("x", 0); !errors.Is(err, ErrUnavailable) {
		t.Errorf("want ErrUnavailable, got %v", err)
	}
}

func TestParseHTMLAnswerPageMalformed(t *testing.T) {
	cases := []string{
		"<html><body>hello</body></html>",
		"<html>of about <b>12",
		"<html>of about <b>oops</b></html>",
	}
	for _, page := range cases {
		if _, err := parseHTMLAnswerPage(page); err == nil {
			t.Errorf("page %q should fail to parse", page)
		}
	}
}

func TestServeTestbed(t *testing.T) {
	a := fixed{name: "alpha", res: Result{MatchCount: 7}}
	b := fixed{name: "beta", res: Result{MatchCount: 9}}
	tb, err := NewTestbed([]Database{a, b})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ServeTestbed(tb))
	defer srv.Close()

	ca := NewClient("alpha", srv.URL+"/db/alpha")
	res, err := ca.Search("anything", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 7 {
		t.Errorf("alpha count = %d, want 7", res.MatchCount)
	}
	cb := NewClient("beta", srv.URL+"/db/beta")
	res, err = cb.Search("anything", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 9 {
		t.Errorf("beta count = %d, want 9", res.MatchCount)
	}
	// Index page lists both databases.
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alpha") || !strings.Contains(buf.String(), "beta") {
		t.Error("index page missing databases")
	}
}

func TestHTMLAnswerPageSnippets(t *testing.T) {
	db := buildSmallLocal(t)
	srv := httptest.NewServer(NewServer(db))
	defer srv.Close()
	client := NewClient("remote", srv.URL)
	client.UseHTML = true
	res, err := client.Search("breast cancer", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) == 0 {
		t.Fatal("no docs")
	}
	for _, d := range res.Docs[:2] {
		if d.Snippet == "" {
			t.Errorf("doc %s missing scraped snippet", d.ID)
		}
		if strings.Contains(d.Snippet, "<") {
			t.Errorf("snippet %q contains markup", d.Snippet)
		}
	}
	// JSON path carries snippets too.
	client.UseHTML = false
	res, err = client.Search("breast cancer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs[0].Snippet == "" {
		t.Error("JSON answer missing snippet")
	}
}

// htmlAnswerPageOfSize renders a valid HTML answer page of exactly n
// bytes: as many result entries as fit, then padding.
func htmlAnswerPageOfSize(n int) string {
	const foot = "</ol>\n</body></html>\n"
	var b strings.Builder
	b.WriteString("<html><body>\n<p>Results 1 - 10 of about <b>1,000,000</b> documents.</p>\n<ol>\n")
	for i := 0; ; i++ {
		entry := fmt.Sprintf(`<li><a href="/doc/d%d">d%d</a> <span class="score">1.0000</span></li>`+"\n", i, i)
		if b.Len()+len(entry)+len(foot) > n {
			break
		}
		b.WriteString(entry)
	}
	b.WriteString(strings.Repeat(" ", n-b.Len()-len(foot)))
	b.WriteString(foot)
	return b.String()
}

// TestClientRefusesOversizedResponses checks that an answer page or
// document over maxResponseBytes fails instead of coming back cut at
// the bound (a cut HTML list would scrape as a shorter, successful
// result), and that one exactly at the bound still parses.
func TestClientRefusesOversizedResponses(t *testing.T) {
	var size atomic.Int64 // the handler runs on the server's goroutines
	size.Store(maxResponseBytes)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/doc") {
			io.WriteString(w, strings.Repeat("a", int(size.Load())))
			return
		}
		io.WriteString(w, htmlAnswerPageOfSize(int(size.Load())))
	}))
	defer srv.Close()
	client := NewClient("big", srv.URL)
	client.UseHTML = true
	ctx := context.Background()

	res, err := client.SearchContext(ctx, "q", 10)
	if err != nil {
		t.Fatalf("page at the bound: %v", err)
	}
	if res.MatchCount != 1000000 || len(res.Docs) == 0 {
		t.Errorf("page at the bound scraped %d matches, %d docs", res.MatchCount, len(res.Docs))
	}
	if text, err := client.FetchContext(ctx, "d0"); err != nil || len(text) != maxResponseBytes {
		t.Errorf("document at the bound: %d bytes, %v", len(text), err)
	}

	size.Store(maxResponseBytes + 1)
	if _, err := client.SearchContext(ctx, "q", 10); !errors.Is(err, errResponseTooLarge) || errors.Is(err, ErrUnavailable) {
		t.Errorf("page over the bound: %v, want errResponseTooLarge and not ErrUnavailable", err)
	}
	if _, err := client.FetchContext(ctx, "d0"); !errors.Is(err, errResponseTooLarge) {
		t.Errorf("document over the bound: %v, want errResponseTooLarge", err)
	}
}
