// Package hidden models Hidden-Web databases: document collections
// reachable only through a keyword-search interface (the paper's
// Section 1 setting — PubMed, MEDLINEplus, and the like).
//
// Everything the metasearcher may do to a database goes through the
// Database interface: submit a keyword query and observe the answer
// page — the number of matching documents and the top-ranked results.
// That observable is exactly what the paper's probing operation uses
// ("many databases report the number of matching documents in their
// answer page", Section 3.4).
//
// Implementations:
//
//   - Local — an in-process collection over textindex (the experiment
//     path, zero latency);
//   - Client — a remote database spoken to over HTTP, scraping either a
//     JSON or an HTML answer page produced by Server (the end-to-end
//     path with real network failure modes);
//   - Counting, FailEvery, Latency — wrappers adding search counting,
//     failure injection and latency injection;
//   - Static, Table — canned-answer databases for tests.
package hidden

import (
	"errors"
	"fmt"
)

// DocSummary is one entry of an answer page.
type DocSummary struct {
	// ID identifies the document within its database.
	ID string
	// Score is the database's own relevance score for the query
	// (tf·idf cosine for Local); higher is better.
	Score float64
	// Snippet is a query-centered text preview, when the source
	// provides one (the HTTP server does for fetchable databases).
	Snippet string `json:",omitempty"`
}

// Result is the answer page for one query.
type Result struct {
	// MatchCount is the number of documents containing every query
	// term — the document-frequency-based relevancy r(db, q).
	MatchCount int
	// Docs holds the top-ranked documents, best first.
	Docs []DocSummary
}

// Database is the search interface of one Hidden-Web database.
type Database interface {
	// Name identifies the database.
	Name() string
	// Search runs a keyword query and returns the answer page with up
	// to topK ranked documents. topK 0 requests the match count only
	// (the cheapest form of probe).
	Search(query string, topK int) (Result, error)
}

// Fetcher is implemented by databases whose documents can be retrieved
// by ID (on the real Web: following a result link). Query-based
// sampling of content summaries requires it.
type Fetcher interface {
	// Fetch returns the text of the identified document.
	Fetch(id string) (string, error)
}

// Sizer is implemented by databases that export their collection size
// (|db| in Eq. 1). The paper notes some databases do not export sizes
// and must be estimated by issuing a query with common terms.
type Sizer interface {
	Size() int
}

// ErrUnavailable is returned by failure-injection wrappers and by the
// HTTP client when a database cannot be reached; callers distinguish it
// from malformed-response errors.
var ErrUnavailable = errors.New("hidden: database unavailable")

// EstimateSize estimates a database's size. When db implements Sizer,
// the exported size is returned directly; otherwise the size is
// estimated by issuing broad single-term probe queries and taking the
// largest match count, the workaround the paper describes in Section
// 6.1 ("issuing a query with common terms, e.g. medical OR health OR
// cancer").
func EstimateSize(db Database, probeTerms []string) (int, error) {
	if s, ok := db.(Sizer); ok {
		return s.Size(), nil
	}
	best := 0
	var firstErr error
	ok := false
	for _, term := range probeTerms {
		res, err := db.Search(term, 0)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = true
		if res.MatchCount > best {
			best = res.MatchCount
		}
	}
	if !ok {
		if firstErr != nil {
			return 0, fmt.Errorf("hidden: size estimation failed: %w", firstErr)
		}
		return 0, fmt.Errorf("hidden: size estimation needs at least one probe term")
	}
	return best, nil
}

// fetchFrom fetches a document through db when it supports fetching.
func fetchFrom(db Database, id string) (string, error) {
	if f, ok := db.(Fetcher); ok {
		return f.Fetch(id)
	}
	return "", fmt.Errorf("hidden: %s does not support document fetching", db.Name())
}

// sizeOf reports db's size when it exports one, 0 otherwise.
func sizeOf(db Database) int {
	if s, ok := db.(Sizer); ok {
		return s.Size()
	}
	return 0
}
