package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"metaprobe"
)

// FuzzSelectRequest throws arbitrary methods, query strings and bodies at
// the real /v1/select handler over a two-database tenant. Whatever the
// decoder or check can refuse is the caller's mistake: it is never a
// panic and never a 5xx, and a refused request searches no backend and
// is not a served selection. The seeds — the bad-request table, one good
// GET and one good POST — run as an ordinary test.
func FuzzSelectRequest(f *testing.F) {
	reg := metaprobe.NewMetrics()
	var searches atomic.Int64
	ms, qs := buildTestMetasearcherN(f, 2, &metaprobe.Config{Metrics: reg}, func(db metaprobe.Database) metaprobe.Database {
		return searchCounter{db, &searches}
	})
	s := New(Config{})
	if err := s.AddTenant(DefaultTenant, ms); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	for _, row := range badSelectRequests(qs[0]) {
		f.Add(row.method, row.query, row.body)
	}
	f.Add("GET", "q="+url.QueryEscape(qs[0])+"&k=1&t=0.9", "")
	f.Add("POST", "", `{"query": "`+qs[1]+`", "k": 2, "metric": "partial", "threshold": 0.5, "maxProbes": 1}`)

	f.Fuzz(func(t *testing.T, method, query, body string) {
		r, err := http.NewRequest(method, "http://daemon/v1/select", strings.NewReader(body))
		if err != nil {
			t.Skip("not a request:", err)
		}
		r.URL.RawQuery = query
		searched, observed := searches.Load(), servedSelections(reg)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s ?%s %q = %d %s", method, query, body, rec.Code, rec.Body)
		case rec.Code >= 400:
			if got := searches.Load() - searched; got != 0 {
				t.Fatalf("%s ?%s %q = %d after %d backend searches", method, query, body, rec.Code, got)
			}
			if got := servedSelections(reg); got != observed {
				t.Fatalf("%s ?%s %q = %d and the selection series moved %v -> %v", method, query, body, rec.Code, observed, got)
			}
		}
	})
}
