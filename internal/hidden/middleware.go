package hidden

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"metaprobe/internal/obs/span"
)

// This file provides the operational middleware a production
// metasearcher needs around remote Hidden-Web sources: politeness
// (rate limiting), resilience (retry with backoff), and test
// instrumentation (latency injection).
//
// All wrappers implement Database and forward Fetcher/Sizer when the
// wrapped database supports them, so they compose freely:
//
//	db := hidden.NewRetry(hidden.NewRateLimited(client, time.Second), 3, time.Second)

// RateLimited enforces a minimum interval between searches against one
// database — the politeness constraint real Hidden-Web sites demand
// (the paper's probing cost concerns are precisely about not hammering
// sources).
type RateLimited struct {
	db       Database
	interval time.Duration

	// OnWait, when set, observes every non-zero politeness delay —
	// the hook the observability layer uses to expose rate-limit
	// waiting time. Set it before the wrapper is shared between
	// goroutines; it must itself be concurrency-safe.
	OnWait func(time.Duration)

	mu   sync.Mutex
	next time.Time
	// sleep is replaceable in tests.
	sleep func(context.Context, time.Duration) error
	// now is replaceable in tests.
	now func() time.Time
}

// NewRateLimited wraps db with a minimum interval between searches.
func NewRateLimited(db Database, interval time.Duration) *RateLimited {
	return &RateLimited{
		db:       db,
		interval: interval,
		sleep:    sleepContext,
		now:      time.Now,
	}
}

// Name implements Database.
func (r *RateLimited) Name() string { return r.db.Name() }

// reserve claims the next politeness slot and returns how long the
// caller must wait before using it.
func (r *RateLimited) reserve() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	wait := r.next.Sub(now)
	if wait < 0 {
		wait = 0
	}
	r.next = now.Add(wait).Add(r.interval)
	return wait
}

// Search implements Database, delaying as needed to honor the interval.
func (r *RateLimited) Search(query string, topK int) (Result, error) {
	return r.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase: the politeness delay itself
// is interruptible, so a cancelled probe stops waiting immediately (its
// reserved slot goes unused — the interval to the next search still
// holds).
func (r *RateLimited) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	if wait := r.reserve(); wait > 0 {
		if r.OnWait != nil {
			r.OnWait(wait)
		}
		if err := r.sleep(ctx, wait); err != nil {
			return Result{}, fmt.Errorf("hidden: %s: %w", r.db.Name(), err)
		}
	}
	return SearchContext(ctx, r.db, query, topK)
}

// Unwrap returns the wrapped database (the middleware-chain walker
// used by NewInstrumented).
func (r *RateLimited) Unwrap() Database { return r.db }

// Fetch passes through (document fetches piggyback on result pages and
// are not separately throttled).
func (r *RateLimited) Fetch(id string) (string, error) { return fetchFrom(r.db, id) }

// Size passes through when available.
func (r *RateLimited) Size() int { return sizeOf(r.db) }

// defaultMaxBackoff caps the exponential backoff doubling when
// Retry.MaxBackoff is unset. Without a ceiling, delay *= 2 grows
// unbounded: after a long outage the next retry could be scheduled
// hours out.
const defaultMaxBackoff = 30 * time.Second

// Retry wraps a database with bounded retries and exponential backoff
// on ErrUnavailable (transient failures); other errors — malformed
// pages, protocol violations — fail immediately.
//
// The backoff ceiling is capped (MaxBackoff) and the actual delay
// drawn uniformly from [0, ceiling] ("full jitter"): many clients
// whose retries were synchronized by one outage would otherwise all
// sleep the same deterministic schedule and storm the recovering
// backend in lockstep.
type Retry struct {
	db       Database
	attempts int
	backoff  time.Duration

	// MaxBackoff caps the doubling backoff ceiling (default 30 s).
	// Set it before the wrapper is shared between goroutines.
	MaxBackoff time.Duration

	// OnRetry, when set, observes every retried attempt (called once
	// per backoff, with the error that triggered it). Set it before
	// the wrapper is shared between goroutines; it must itself be
	// concurrency-safe.
	OnRetry func(error)

	// sleep is replaceable in tests.
	sleep func(context.Context, time.Duration) error
	// jitter draws the actual delay from a ceiling; replaceable in
	// tests (the default is full jitter: uniform in [0, d]).
	jitter func(d time.Duration) time.Duration
}

// NewRetry wraps db; attempts is the total number of tries (≥ 1) and
// backoff the initial delay, doubling per retry up to MaxBackoff.
func NewRetry(db Database, attempts int, backoff time.Duration) *Retry {
	if attempts < 1 {
		attempts = 1
	}
	return &Retry{db: db, attempts: attempts, backoff: backoff, sleep: sleepContext, jitter: fullJitter}
}

// fullJitter returns a uniformly random duration in [0, d].
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// nextDelay returns the jittered sleep for the current backoff ceiling
// and the (capped) ceiling for the retry after it.
func (r *Retry) nextDelay(ceiling time.Duration) (sleep, next time.Duration) {
	max := r.MaxBackoff
	if max <= 0 {
		max = defaultMaxBackoff
	}
	if ceiling > max {
		ceiling = max
	}
	next = ceiling * 2
	if next > max {
		next = max
	}
	return r.jitter(ceiling), next
}

// Name implements Database.
func (r *Retry) Name() string { return r.db.Name() }

// Unwrap returns the wrapped database.
func (r *Retry) Unwrap() Database { return r.db }

// retry runs op until it succeeds, fails with anything but
// ErrUnavailable, ctx is done or the attempts are spent; outcome words
// the final error ("failed", "fetch failed"). Backoff sleeps abort on
// cancellation. Each retried attempt is recorded as an event on the
// ambient trace span (when one is present), with the triggering error.
func retry[T any](ctx context.Context, r *Retry, outcome string, op func() (T, error)) (T, error) {
	var zero T
	sp := span.FromContext(ctx)
	delay := r.backoff
	var lastErr error
	retries := 0
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			if r.OnRetry != nil {
				r.OnRetry(lastErr)
			}
			retries++
			sp.AddEvent("retry", "attempt", strconv.Itoa(attempt+1), "error", lastErr.Error())
			var sleep time.Duration
			sleep, delay = r.nextDelay(delay)
			if err := r.sleep(ctx, sleep); err != nil {
				return zero, fmt.Errorf("hidden: %s: %w", r.db.Name(), err)
			}
		}
		res, err := op()
		if err == nil {
			if retries > 0 {
				sp.SetAttr("retries", strconv.Itoa(retries))
			}
			return res, nil
		}
		if !errors.Is(err, ErrUnavailable) || ctx.Err() != nil {
			return zero, err
		}
		lastErr = err
	}
	sp.SetAttr("retries", strconv.Itoa(retries))
	return zero, fmt.Errorf("hidden: %s %s after %d attempts: %w", r.db.Name(), outcome, r.attempts, lastErr)
}

// Search implements Database with retries on transient failures.
func (r *Retry) Search(query string, topK int) (Result, error) {
	return r.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase: the context reaches the
// wrapped database and the backoff sleeps (see retry).
func (r *Retry) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	return retry(ctx, r, "failed", func() (Result, error) { return SearchContext(ctx, r.db, query, topK) })
}

// Fetch passes through with the same retry discipline.
func (r *Retry) Fetch(id string) (string, error) {
	return retry(context.Background(), r, "fetch failed", func() (string, error) { return fetchFrom(r.db, id) })
}

// Size passes through when available.
func (r *Retry) Size() int { return sizeOf(r.db) }

// Latency injects a fixed delay before every search — used by
// benchmarks and examples to simulate remote round-trip times without
// a network.
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

// Unwrap returns the wrapped database.
func (l *Latency) Unwrap() Database { return l.db }

// Search implements Database with the injected delay.
func (l *Latency) Search(query string, topK int) (Result, error) {
	return l.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase: the injected delay is
// interruptible, so cancelled hedges and abandoned speculative probes
// return immediately — exactly the behavior of a real remote round
// trip aborted mid-flight.
func (l *Latency) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	if err := l.sleep(ctx, l.delay); err != nil {
		return Result{}, fmt.Errorf("hidden: %s: %w", l.db.Name(), err)
	}
	return SearchContext(ctx, l.db, query, topK)
}

// Size passes through when available.
func (l *Latency) Size() int { return sizeOf(l.db) }
