package hidden

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Counting wraps a database and counts searches — the paper's probing
// cost (Section 5.2: "minimizing the probing cost is the same as
// minimizing the total number of probing"). Tests use it to see how
// many probes a code path spends.
type Counting struct {
	db Database

	searches atomic.Int64
}

// NewCounting wraps db with a zeroed search counter.
func NewCounting(db Database) *Counting {
	return &Counting{db: db}
}

// Name implements Database.
func (c *Counting) Name() string { return c.db.Name() }

// Search implements Database, incrementing the probe counter.
func (c *Counting) Search(query string, topK int) (Result, error) {
	return c.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase with the same accounting.
func (c *Counting) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	c.searches.Add(1)
	return SearchContext(ctx, c.db, query, topK)
}

// Size passes through when the wrapped database exports its size.
func (c *Counting) Size() int { return sizeOf(c.db) }

// Fetch passes through when the wrapped database supports fetching.
// Document fetches are not counted as probes (the paper's probing cost
// counts queries, and fetches only occur during offline sampling).
func (c *Counting) Fetch(id string) (string, error) { return fetchFrom(c.db, id) }

// Searches returns the number of searches issued so far.
func (c *Counting) Searches() int64 { return c.searches.Load() }

// FailEvery wraps a database and fails deterministically: every n-th
// search returns ErrUnavailable. Used by failure-injection tests.
type FailEvery struct {
	db Database
	n  int64

	calls atomic.Int64
}

// NewFailEvery fails the n-th, 2n-th, ... searches; n ≤ 0 never fails.
func NewFailEvery(db Database, n int) *FailEvery {
	return &FailEvery{db: db, n: int64(n)}
}

// Name implements Database.
func (f *FailEvery) Name() string { return f.db.Name() }

// Search implements Database with deterministic failures.
func (f *FailEvery) Search(query string, topK int) (Result, error) {
	return f.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase with the same failure
// schedule.
func (f *FailEvery) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	c := f.calls.Add(1)
	if f.n > 0 && c%f.n == 0 {
		return Result{}, fmt.Errorf("%w: injected failure on call %d to %s", ErrUnavailable, c, f.db.Name())
	}
	return SearchContext(ctx, f.db, query, topK)
}

// Fetch passes through when the wrapped database supports fetching.
func (f *FailEvery) Fetch(id string) (string, error) { return fetchFrom(f.db, id) }

// Static is a fixed-answer database used in unit tests: every query
// gets the canned result. It also records the queries it received.
type Static struct {
	name   string
	result Result
	err    error

	mu      sync.Mutex
	queries []string
}

// NewStatic returns a database that always answers with result.
func NewStatic(name string, result Result) *Static {
	return &Static{name: name, result: result}
}

// NewStaticError returns a database that always fails with err.
func NewStaticError(name string, err error) *Static {
	return &Static{name: name, err: err}
}

// Name implements Database.
func (s *Static) Name() string { return s.name }

// Search implements Database.
func (s *Static) Search(query string, topK int) (Result, error) {
	s.mu.Lock()
	s.queries = append(s.queries, query)
	s.mu.Unlock()
	if s.err != nil {
		return Result{}, s.err
	}
	res := s.result
	if topK < len(res.Docs) {
		res.Docs = res.Docs[:topK]
	}
	return res, nil
}

// Queries returns the queries received so far.
func (s *Static) Queries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.queries...)
}

// Table is a map-backed database for tests: exact query string →
// match count.
type Table struct {
	name   string
	counts map[string]int
}

// NewTable builds a database answering from the given query → count
// table; unknown queries match zero documents.
func NewTable(name string, counts map[string]int) *Table {
	return &Table{name: name, counts: counts}
}

// Name implements Database.
func (t *Table) Name() string { return t.name }

// Search implements Database.
func (t *Table) Search(query string, topK int) (Result, error) {
	return Result{MatchCount: t.counts[query]}, nil
}
