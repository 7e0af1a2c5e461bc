// Package hiddentest holds the hidden.Database doubles other packages'
// tests build with: a search counter, deterministic failure injection,
// a failing database and a map-backed one.
package hiddentest

import (
	"context"
	"fmt"
	"sync/atomic"

	"metaprobe/internal/hidden"
)

// Counting wraps a database and counts searches — the paper's probing
// cost (Section 5.2: "minimizing the probing cost is the same as
// minimizing the total number of probing"). Tests use it to see how
// many probes a code path spends.
type Counting struct {
	db hidden.Database

	searches atomic.Int64
}

// NewCounting wraps db with a zeroed search counter.
func NewCounting(db hidden.Database) *Counting {
	return &Counting{db: db}
}

// Name implements hidden.Database.
func (c *Counting) Name() string { return c.db.Name() }

// SearchContext implements hidden.Database, incrementing the probe
// counter.
func (c *Counting) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	c.searches.Add(1)
	return c.db.SearchContext(ctx, query, topK)
}

// Size passes through when the wrapped database exports its size.
func (c *Counting) Size() int { return sizeOf(c.db) }

// Fetch passes through when the wrapped database supports fetching.
// Document fetches are not counted as probes (the paper's probing cost
// counts queries, and fetches only occur during offline sampling).
func (c *Counting) Fetch(ctx context.Context, id string) (string, error) {
	return fetchFrom(ctx, c.db, id)
}

// Searches returns the number of searches issued so far.
func (c *Counting) Searches() int64 { return c.searches.Load() }

// FailEvery wraps a database and fails deterministically: every n-th
// search returns hidden.ErrUnavailable.
type FailEvery struct {
	db hidden.Database
	n  int64

	calls atomic.Int64
}

// NewFailEvery fails the n-th, 2n-th, ... searches; n ≤ 0 never fails.
func NewFailEvery(db hidden.Database, n int) *FailEvery {
	return &FailEvery{db: db, n: int64(n)}
}

// Name implements hidden.Database.
func (f *FailEvery) Name() string { return f.db.Name() }

// SearchContext implements hidden.Database with deterministic failures.
func (f *FailEvery) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	c := f.calls.Add(1)
	if f.n > 0 && c%f.n == 0 {
		return hidden.Result{}, fmt.Errorf("%w: injected failure on call %d to %s", hidden.ErrUnavailable, c, f.db.Name())
	}
	return f.db.SearchContext(ctx, query, topK)
}

// Fetch passes through when the wrapped database supports fetching.
func (f *FailEvery) Fetch(ctx context.Context, id string) (string, error) {
	return fetchFrom(ctx, f.db, id)
}

// Static is a database whose every search fails with one error.
type Static struct {
	name string
	err  error
}

// NewStaticError returns a database that always fails with err.
func NewStaticError(name string, err error) *Static {
	return &Static{name: name, err: err}
}

// Name implements hidden.Database.
func (s *Static) Name() string { return s.name }

// SearchContext implements hidden.Database.
func (s *Static) SearchContext(context.Context, string, int) (hidden.Result, error) {
	return hidden.Result{}, s.err
}

// Table is a map-backed database: exact query string → match count.
type Table struct {
	name   string
	counts map[string]int
}

// NewTable builds a database answering from the given query → count
// table; unknown queries match zero documents.
func NewTable(name string, counts map[string]int) *Table {
	return &Table{name: name, counts: counts}
}

// Name implements hidden.Database.
func (t *Table) Name() string { return t.name }

// SearchContext implements hidden.Database.
func (t *Table) SearchContext(_ context.Context, query string, _ int) (hidden.Result, error) {
	return hidden.Result{MatchCount: t.counts[query]}, nil
}

// fetchFrom fetches a document through db when it supports fetching.
func fetchFrom(ctx context.Context, db hidden.Database, id string) (string, error) {
	if f, ok := db.(hidden.Fetcher); ok {
		return f.Fetch(ctx, id)
	}
	return "", fmt.Errorf("hiddentest: %s does not support document fetching", db.Name())
}

// sizeOf reports db's size when it exports one, 0 otherwise.
func sizeOf(db hidden.Database) int {
	if s, ok := db.(hidden.Sizer); ok {
		return s.Size()
	}
	return 0
}
