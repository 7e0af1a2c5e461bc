package hidden

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// Instrumented wraps a Database and records per-database operational
// metrics into an obs.Registry: search/fetch counts, errors and
// latency quantiles, plus — by walking the middleware chain below it —
// retry counts, rate-limit waiting time and cache hit/miss counters.
// It composes with the other wrappers; put it outermost so the
// latencies it observes are what the metasearcher actually experiences
// (including politeness waits, backoff and cache hits):
//
//	db := hidden.NewInstrumented(
//	        hidden.NewRetry(hidden.NewRateLimited(
//	            hidden.NewCached(client, 1024), time.Second), 3, time.Second),
//	        reg)
//
// Metric handles are resolved once at construction, so the per-search
// overhead is a clock read plus a few atomic operations.
type Instrumented struct {
	db Database

	searches   *obs.Counter
	searchErrs *obs.Counter
	searchLat  *obs.Histogram
	fetches    *obs.Counter
	fetchErrs  *obs.Counter
	fetchLat   *obs.Histogram
}

// NewInstrumented wraps db, registering its metrics (labelled with the
// database name) in reg. A nil registry yields a functioning wrapper
// whose recording is a no-op.
//
// The constructor walks the chain of wrappers below db (via their
// Unwrap methods) and, where it finds middleware with unset
// observability hooks, wires them into the registry:
//
//   - *RateLimited: OnWait → metaprobe_db_ratelimit_wait_seconds
//   - *Retry: OnRetry → metaprobe_db_retries_total
//   - *Cached: Stats → metaprobe_db_cache_{hits,misses}_total
//
// Hooks already set by the caller are left alone. Wire the chain
// before sharing it between goroutines.
func NewInstrumented(db Database, reg *obs.Registry) *Instrumented {
	lbl := obs.Labels{"db": db.Name()}
	in := &Instrumented{
		db:         db,
		searches:   reg.Counter("metaprobe_db_searches_total", lbl),
		searchErrs: reg.Counter("metaprobe_db_search_errors_total", lbl),
		searchLat:  reg.Histogram("metaprobe_db_search_latency_seconds", lbl),
		fetches:    reg.Counter("metaprobe_db_fetches_total", lbl),
		fetchErrs:  reg.Counter("metaprobe_db_fetch_errors_total", lbl),
		fetchLat:   reg.Histogram("metaprobe_db_fetch_latency_seconds", lbl),
	}
	if reg != nil {
		reg.Help("metaprobe_db_searches_total", "Searches issued to the database, through all middleware.")
		reg.Help("metaprobe_db_search_latency_seconds", "Search latency as experienced by the metasearcher.")
		reg.Help("metaprobe_db_retries_total", "Retried search/fetch attempts after transient failures.")
		reg.Help("metaprobe_db_ratelimit_wait_seconds", "Politeness delay spent waiting for the rate limiter.")
		reg.Help("metaprobe_db_cache_hits_total", "Result-cache hits.")
		reg.Help("metaprobe_db_cache_misses_total", "Result-cache misses.")
		for cur := db; cur != nil; {
			switch w := cur.(type) {
			case *RateLimited:
				if w.OnWait == nil {
					waitLat := reg.Histogram("metaprobe_db_ratelimit_wait_seconds", lbl)
					w.OnWait = func(d time.Duration) { waitLat.Observe(d.Seconds()) }
				}
			case *Retry:
				if w.OnRetry == nil {
					retries := reg.Counter("metaprobe_db_retries_total", lbl)
					w.OnRetry = func(error) { retries.Inc() }
				}
			case *Cached:
				cache := w
				reg.CounterFunc("metaprobe_db_cache_hits_total", lbl, func() float64 {
					h, _ := cache.Stats()
					return float64(h)
				})
				reg.CounterFunc("metaprobe_db_cache_misses_total", lbl, func() float64 {
					_, m := cache.Stats()
					return float64(m)
				})
			}
			u, ok := cur.(interface{ Unwrap() Database })
			if !ok {
				break
			}
			cur = u.Unwrap()
		}
	}
	return in
}

// Name implements Database.
func (n *Instrumented) Name() string { return n.db.Name() }

// Unwrap returns the wrapped database.
func (n *Instrumented) Unwrap() Database { return n.db }

// Search implements Database, recording count, errors and latency.
func (n *Instrumented) Search(query string, topK int) (Result, error) {
	return n.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase with the same accounting:
// cancelled and timed-out probes count as search errors, so hedging
// and breaker decisions stay visible per database. When ctx carries a
// trace span, the search runs under a db.search child span so cache
// hits, retries and wire sizes recorded by the middleware below attach
// to it.
func (n *Instrumented) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	ctx, sp := span.Start(ctx, "db.search")
	sp.SetAttr("db", n.db.Name())
	start := time.Now()
	res, err := SearchContext(ctx, n.db, query, topK)
	n.searchLat.Observe(time.Since(start).Seconds())
	n.searches.Inc()
	if err != nil {
		n.searchErrs.Inc()
	} else {
		sp.SetAttr("matches", strconv.Itoa(res.MatchCount))
	}
	sp.EndErr(err)
	return res, err
}

// Fetch implements Fetcher with the same accounting.
func (n *Instrumented) Fetch(id string) (string, error) {
	f, ok := n.db.(Fetcher)
	if !ok {
		return "", fmt.Errorf("hidden: %s does not support document fetching", n.db.Name())
	}
	start := time.Now()
	text, err := f.Fetch(id)
	n.fetchLat.Observe(time.Since(start).Seconds())
	n.fetches.Inc()
	if err != nil {
		n.fetchErrs.Inc()
	}
	return text, err
}

// Size passes through when available.
func (n *Instrumented) Size() int { return sizeOf(n.db) }
