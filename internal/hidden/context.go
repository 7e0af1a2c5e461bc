package hidden

import (
	"context"
	"time"
)

// SearchContext is db.SearchContext. It stays only because the
// benchmark's backend wrapper (benchmark/setup.go) calls it; delete it
// once that wrapper calls the method.
func SearchContext(ctx context.Context, db Database, query string, topK int) (Result, error) {
	return db.SearchContext(ctx, query, topK)
}

// WithContext binds ctx into a view of db whose searches run under ctx
// whatever context they are handed. It serves
// estimate.Relevancy.Probe(db, query), which searches under the
// Background context and whose signature the benchmark's replay
// (benchmark/trace.go) pins.
func WithContext(ctx context.Context, db Database) Database {
	return &boundContext{ctx: ctx, db: db}
}

// boundContext is db searched under ctx.
type boundContext struct {
	ctx context.Context
	db  Database
}

// Name implements Database.
func (b *boundContext) Name() string { return b.db.Name() }

// SearchContext implements Database under the bound context, in place
// of the one passed.
func (b *boundContext) SearchContext(_ context.Context, query string, topK int) (Result, error) {
	return b.db.SearchContext(b.ctx, query, topK)
}

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
