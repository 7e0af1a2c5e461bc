package hidden

import (
	"context"
	"fmt"
	"time"
)

// ContextDatabase is a Database whose searches honor a
// context.Context: cancellation and deadlines propagate into the
// request (for the HTTP client, all the way into the wire request via
// http.NewRequestWithContext). The probe-execution engine
// (internal/probeexec) depends on this to enforce its probe timeout and
// abandon probes whose selection already reached its certainty target.
type ContextDatabase interface {
	Database
	// SearchContext is Search bounded by ctx. Implementations return
	// promptly once ctx is done; the error then wraps ctx.Err().
	SearchContext(ctx context.Context, query string, topK int) (Result, error)
}

// ContextFetcher is the context-aware analogue of Fetcher.
type ContextFetcher interface {
	Fetcher
	// FetchContext is Fetch bounded by ctx.
	FetchContext(ctx context.Context, id string) (string, error)
}

// SearchContext issues a search through db honoring ctx: databases
// implementing ContextDatabase get the context natively; for everything
// else the search runs synchronously after a cancellation pre-check
// (in-process databases answer in microseconds, so mid-flight
// cancellation buys nothing there).
func SearchContext(ctx context.Context, db Database, query string, topK int) (Result, error) {
	if cd, ok := db.(ContextDatabase); ok {
		return cd.SearchContext(ctx, query, topK)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("hidden: %s: %w", db.Name(), err)
	}
	return db.Search(query, topK)
}

// WithContext binds ctx into a plain Database view of db, so
// context-free APIs that accept a Database (estimate.Relevancy.Probe,
// EstimateSize) transparently run their searches under the context.
// Fetcher and Sizer pass through when db supports them.
func WithContext(ctx context.Context, db Database) Database {
	return &boundContext{ctx: ctx, db: db}
}

// boundContext adapts (ctx, db) to the context-free Database surface.
type boundContext struct {
	ctx context.Context
	db  Database
}

// Name implements Database.
func (b *boundContext) Name() string { return b.db.Name() }

// Search implements Database under the bound context.
func (b *boundContext) Search(query string, topK int) (Result, error) {
	return SearchContext(b.ctx, b.db, query, topK)
}

// Fetch passes through under the bound context when supported.
func (b *boundContext) Fetch(id string) (string, error) {
	if cf, ok := b.db.(ContextFetcher); ok {
		return cf.FetchContext(b.ctx, id)
	}
	if f, ok := b.db.(Fetcher); ok {
		if err := b.ctx.Err(); err != nil {
			return "", fmt.Errorf("hidden: %s: %w", b.db.Name(), err)
		}
		return f.Fetch(id)
	}
	return "", fmt.Errorf("hidden: %s does not support document fetching", b.db.Name())
}

// Size passes through when available.
func (b *boundContext) Size() int { return sizeOf(b.db) }

// sleepContext blocks for d or until ctx is done, whichever comes
// first, returning ctx.Err() in the latter case. It is Latency's sleep
// (tests replace it), so injected latency aborts promptly on
// cancellation.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
