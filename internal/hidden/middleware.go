package hidden

import (
	"context"
	"fmt"
	"time"
)

// Latency injects a fixed delay before every search — used by
// benchmarks and examples to simulate remote round-trip times without
// a network. It forwards Fetcher and Sizer when the wrapped database
// supports them, as hiddentest's wrappers do, so wrappers compose
// freely.
type Latency struct {
	db    Database
	delay time.Duration
	// sleep is replaceable in tests.
	sleep func(context.Context, time.Duration) error
}

// NewLatency wraps db with a per-search delay.
func NewLatency(db Database, delay time.Duration) *Latency {
	return &Latency{db: db, delay: delay, sleep: sleepContext}
}

// Name implements Database.
func (l *Latency) Name() string { return l.db.Name() }

// SearchContext implements Database with the injected delay. The delay is
// interruptible, so timed-out and abandoned speculative probes return
// immediately — exactly the behavior of a real remote round
// trip aborted mid-flight.
func (l *Latency) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	if err := l.sleep(ctx, l.delay); err != nil {
		return Result{}, fmt.Errorf("hidden: %s: %w", l.db.Name(), err)
	}
	return l.db.SearchContext(ctx, query, topK)
}

// Fetch passes through, undelayed, when the wrapped database supports
// fetching: the delay models a search round trip, and fetches only
// occur during offline sampling and result-snippet retrieval.
func (l *Latency) Fetch(ctx context.Context, id string) (string, error) {
	return fetchFrom(ctx, l.db, id)
}

// Size passes through when available.
func (l *Latency) Size() int { return sizeOf(l.db) }
