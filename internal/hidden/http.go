package hidden

import (
	"context"
	"fmt"
	"html"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"metaprobe/internal/obs/span"
	"metaprobe/internal/textindex"
)

// Server exposes one database over HTTP the way real Hidden-Web
// sources do: a keyword-search endpoint returning a human-oriented HTML
// answer page stating "Results 1 - k of about N documents", which the
// Client scrapes exactly as the paper's metasearcher scrapes real
// answer pages.
type Server struct {
	db Database
}

// maxTopK caps the number of documents a Server returns per request.
const maxTopK = 100

// NewServer wraps a database as an HTTP handler.
func NewServer(db Database) *Server {
	return &Server{db: db}
}

// ServeHTTP implements http.Handler: /search answers queries, /doc
// serves document text (when the backing database supports fetching).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "only GET is supported", http.StatusMethodNotAllowed)
		return
	}
	if strings.HasSuffix(r.URL.Path, "/doc") {
		s.serveDoc(w, r)
		return
	}
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		http.Error(w, "missing query parameter q", http.StatusBadRequest)
		return
	}
	topK := 0
	if ks := r.URL.Query().Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil || k < 0 {
			http.Error(w, "parameter k must be a non-negative integer", http.StatusBadRequest)
			return
		}
		topK = k
	}
	topK = min(topK, maxTopK)
	res, err := s.db.SearchContext(r.Context(), q, topK)
	if err != nil {
		http.Error(w, fmt.Sprintf("search failed: %v", err), http.StatusBadGateway)
		return
	}
	// Real answer pages show a preview line per hit; synthesize one
	// when documents are fetchable.
	if f, ok := s.db.(Fetcher); ok {
		for i := range res.Docs {
			if res.Docs[i].Snippet != "" {
				continue
			}
			if text, err := f.Fetch(r.Context(), res.Docs[i].ID); err == nil {
				res.Docs[i].Snippet = textindex.Snippet(text, q, 12, false)
			}
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	writeHTMLAnswerPage(w, s.db.Name(), q, res)
}

// serveDoc returns a document's text as text/plain.
func (s *Server) serveDoc(w http.ResponseWriter, r *http.Request) {
	f, ok := s.db.(Fetcher)
	if !ok {
		http.Error(w, "this database does not serve documents", http.StatusNotFound)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing document id", http.StatusBadRequest)
		return
	}
	text, err := f.Fetch(r.Context(), id)
	if err != nil {
		http.Error(w, fmt.Sprintf("fetch failed: %v", err), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, text)
}

// writeHTMLAnswerPage renders the kind of result page a human-facing
// search site produces, including the thousands-separated "of about N"
// phrasing that scrapers must cope with.
func writeHTMLAnswerPage(w io.Writer, dbName, query string, res Result) {
	fmt.Fprintf(w, "<html><head><title>%s search</title></head><body>\n", html.EscapeString(dbName))
	fmt.Fprintf(w, "<h1>%s</h1>\n", html.EscapeString(dbName))
	fmt.Fprintf(w, "<p>You searched for <i>%s</i>.</p>\n", html.EscapeString(query))
	if res.MatchCount == 0 {
		fmt.Fprintf(w, "<p>No documents matched your query.</p>\n")
	} else {
		shown := len(res.Docs)
		fmt.Fprintf(w, "<p>Results 1 - %d of about <b>%s</b> documents.</p>\n<ol>\n",
			shown, groupThousands(res.MatchCount))
		for _, d := range res.Docs {
			fmt.Fprintf(w, `<li><a href="/doc/%s">%s</a> <span class="score">%.4f</span>`,
				url.PathEscape(d.ID), html.EscapeString(d.ID), d.Score)
			if d.Snippet != "" {
				fmt.Fprintf(w, ` <span class="snip">%s</span>`, html.EscapeString(d.Snippet))
			}
			fmt.Fprintf(w, "</li>\n")
		}
		fmt.Fprintf(w, "</ol>\n")
	}
	fmt.Fprintf(w, "</body></html>\n")
}

// groupThousands formats 1234567 as "1,234,567".
func groupThousands(n int) string {
	s := strconv.Itoa(n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// Client speaks to a remote database served by Server (or anything
// wire-compatible). It implements Database and Fetcher.
type Client struct {
	name    string
	baseURL string
	// httpClient is the underlying client (default: 10 s timeout).
	httpClient *http.Client
}

// NewClient returns a client for the database at baseURL (the URL
// serving /search). name is the metasearcher-side identifier.
func NewClient(name, baseURL string) *Client {
	return &Client{
		name:       name,
		baseURL:    strings.TrimRight(baseURL, "/"),
		httpClient: &http.Client{Timeout: 10 * time.Second},
	}
}

// Name implements Database.
func (c *Client) Name() string { return c.name }

// maxResponseBytes bounds how much of any HTTP response body is read,
// protecting the metasearcher from a misbehaving backend streaming an
// unbounded answer page or document.
const maxResponseBytes = 4 << 20

// errResponseTooLarge fails an answer page or document longer than
// maxResponseBytes. A page cut at the bound would parse as a shorter
// result list and a document as a shorter text, so neither is used.
// It does not wrap ErrUnavailable: asking again gets the same page.
var errResponseTooLarge = fmt.Errorf("response exceeds the %d-byte bound", maxResponseBytes)

// errBodySnippet is how much of a non-200 response body is surfaced in
// the error message; real Hidden-Web sources put the useful diagnostic
// ("rate limit exceeded", "maintenance window") in the first line.
const errBodySnippet = 256

// truncateForError trims a response body for inclusion in an error.
func truncateForError(body []byte) string {
	s := strings.TrimSpace(string(body))
	if len(s) > errBodySnippet {
		s = s[:errBodySnippet] + "..."
	}
	return s
}

// SearchContext implements Database over HTTP by scraping the answer
// page. The context rides the wire request, so deadlines and
// cancellation abort the round trip itself.
func (c *Client) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	u := fmt.Sprintf("%s/search?q=%s&k=%d", c.baseURL, url.QueryEscape(query), topK)
	body, status, err := c.get(ctx, u)
	if err != nil {
		return Result{}, err
	}
	if status != http.StatusOK {
		return Result{}, fmt.Errorf("%w: %s: HTTP %d: %s", ErrUnavailable, c.name, status, truncateForError(body))
	}
	return parseHTMLAnswerPage(string(body))
}

// Fetch implements Fetcher over HTTP, the context riding the wire
// request.
func (c *Client) Fetch(ctx context.Context, id string) (string, error) {
	u := fmt.Sprintf("%s/doc?id=%s", c.baseURL, url.QueryEscape(id))
	body, status, err := c.get(ctx, u)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("hidden: %s: fetching %q: HTTP %d: %s", c.name, id, status, truncateForError(body))
	}
	return string(body), nil
}

// get performs one bounded GET under ctx, returning the body and status
// code. Transport-level failures wrap ErrUnavailable and the transport's
// error, so a done ctx's error shows through (the probe engine does not
// hold a cancelled probe against the backend); a 200 answer over
// maxResponseBytes fails with errResponseTooLarge. The response size is
// noted on the ambient trace span, so per-request byte spend is visible
// end to end.
func (c *Client) get(ctx context.Context, u string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("hidden: %s: %v", c.name, err)
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s: %w", ErrUnavailable, c.name, err)
	}
	defer resp.Body.Close()
	// One byte past the bound tells a page that fits from one cut short.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s: reading response: %w", ErrUnavailable, c.name, err)
	}
	span.FromContext(ctx).AddEvent("http_response",
		"status", strconv.Itoa(resp.StatusCode), "bytes", strconv.Itoa(len(body)))
	if resp.StatusCode == http.StatusOK && len(body) > maxResponseBytes {
		return nil, 0, fmt.Errorf("hidden: %s: %w", c.name, errResponseTooLarge)
	}
	return body, resp.StatusCode, nil
}

// parseHTMLAnswerPage scrapes the match count and result list out of an
// HTML answer page — the operation the paper's metasearcher performs on
// real Hidden-Web sites.
func parseHTMLAnswerPage(page string) (Result, error) {
	if strings.Contains(page, "No documents matched") {
		return Result{}, nil
	}
	const marker = "of about <b>"
	i := strings.Index(page, marker)
	if i < 0 {
		return Result{}, fmt.Errorf("hidden: answer page has no match-count marker")
	}
	rest := page[i+len(marker):]
	j := strings.Index(rest, "</b>")
	if j < 0 {
		return Result{}, fmt.Errorf("hidden: answer page match count not terminated")
	}
	count, err := strconv.Atoi(strings.ReplaceAll(rest[:j], ",", ""))
	if err != nil || count < 0 {
		return Result{}, fmt.Errorf("hidden: answer page match count %q is not a count", rest[:j])
	}
	res := Result{MatchCount: count}
	// Result entries: <li><a href="/doc/ID">ID</a> <span class="score">S</span></li>
	for body := rest; ; {
		li := strings.Index(body, `<li><a href="/doc/`)
		if li < 0 {
			break
		}
		body = body[li:]
		idStart := strings.Index(body, `">`)
		idEnd := strings.Index(body, "</a>")
		if idStart < 0 || idEnd < 0 || idStart+2 > idEnd {
			return res, fmt.Errorf("hidden: malformed result entry in answer page")
		}
		id := html.UnescapeString(body[idStart+2 : idEnd])
		scoreStart := strings.Index(body, `class="score">`)
		scoreEnd := strings.Index(body, "</span>")
		if scoreStart < 0 || scoreEnd < 0 {
			return res, fmt.Errorf("hidden: result entry missing score")
		}
		raw := body[scoreStart+len(`class="score">`) : scoreEnd]
		score, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(score) || math.IsInf(score, 0) {
			return res, fmt.Errorf("hidden: malformed score %q in answer page", raw)
		}
		doc := DocSummary{ID: id, Score: score}
		body = body[scoreEnd+len("</span>"):]
		// Optional preview line, looked for within this entry only: a
		// search to the end of the page per entry is quadratic on a long
		// page without previews.
		entry := body
		if liEnd := strings.Index(body, "</li>"); liEnd >= 0 {
			entry = body[:liEnd]
		}
		if snipStart := strings.Index(entry, `class="snip">`); snipStart >= 0 {
			rest := body[snipStart+len(`class="snip">`):]
			if snipEnd := strings.Index(rest, "</span>"); snipEnd >= 0 {
				doc.Snippet = html.UnescapeString(rest[:snipEnd])
			}
		}
		res.Docs = append(res.Docs, doc)
	}
	return res, nil
}

// ServeTestbed multiplexes many databases under one handler:
// /db/<name>/search routes to the matching database's Server.
func ServeTestbed(t *Testbed) http.Handler {
	mux := http.NewServeMux()
	for _, db := range t.Databases() {
		srv := NewServer(db)
		mux.Handle("/db/"+db.Name()+"/", http.StripPrefix("/db/"+db.Name(), srv))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<html><body><h1>metaprobe testbed</h1><ul>\n")
		for _, db := range t.Databases() {
			fmt.Fprintf(w, `<li><a href="/db/%s/search?q=example">%s</a></li>`+"\n",
				url.PathEscape(db.Name()), html.EscapeString(db.Name()))
		}
		fmt.Fprintf(w, "</ul></body></html>\n")
	})
	return mux
}
