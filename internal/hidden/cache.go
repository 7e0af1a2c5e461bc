package hidden

import (
	"container/list"
	"context"
	"sync"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// Cached memoizes search results with an LRU eviction policy. Within a
// metasearch session the same query hits a database repeatedly —
// training, golden-standard construction, probing and result fetching
// all issue overlapping queries — and remote round trips dominate, so
// a small per-database cache pays for itself immediately.
//
// Results are cached per query, keeping the answer with the largest
// topK ceiling seen so far: a request for fewer documents than a
// cached entry holds is served by truncating the cached ranking (a
// hit), since the top-k of a top-K answer with k ≤ K is identical.
// Only a request for *more* documents than the entry can prove it has
// falls through to the backend, after which the larger answer replaces
// the entry.
type Cached struct {
	db       Database
	capacity int

	mu      sync.Mutex
	entries map[string]*list.Element // query → entry
	order   *list.List               // front = most recent

	hits, misses int64
}

// cacheEntry is one memoized answer: the best (largest-ceiling)
// result seen for a query.
type cacheEntry struct {
	query string
	// topK is the ceiling res was fetched with.
	topK int
	res  Result
}

// serves reports whether this entry can answer a request for topK
// documents: either the entry was fetched with at least that ceiling,
// or it holds the complete match list (the backend returned fewer
// documents than asked for, so no larger request can see more).
func (e *cacheEntry) serves(topK int) bool {
	return e.topK >= topK || len(e.res.Docs) < e.topK
}

// truncate renders the entry's answer for a smaller ceiling. The Docs
// slice is shared read-only with the cache.
func (e *cacheEntry) truncate(topK int) Result {
	res := e.res
	if topK < len(res.Docs) {
		res.Docs = res.Docs[:topK:topK]
	}
	return res
}

// NewCached wraps db with an LRU result cache of the given capacity
// (entries, not bytes); capacity ≤ 0 defaults to 1024.
func NewCached(db Database, capacity int) *Cached {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cached{
		db:       db,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Name implements Database.
func (c *Cached) Name() string { return c.db.Name() }

// Unwrap returns the wrapped database.
func (c *Cached) Unwrap() Database { return c.db }

// Search implements Database with memoization. Errors are never
// cached.
func (c *Cached) Search(query string, topK int) (Result, error) {
	return c.SearchContext(context.Background(), query, topK)
}

// SearchContext implements ContextDatabase. Hits answer from memory
// regardless of the context's state; misses go to the backend under
// ctx. The outcome is annotated on the ambient trace span and, for
// hits, charged to the selection's cost account (a hit costs no wire
// round trip).
func (c *Cached) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	sp := span.FromContext(ctx)
	if res, ok := c.lookup(query, topK); ok {
		sp.AddEvent("cache_hit", "db", c.db.Name())
		obs.CostFromContext(ctx).AddCacheHit()
		return res, nil
	}
	sp.AddEvent("cache_miss", "db", c.db.Name())
	res, err := SearchContext(ctx, c.db, query, topK)
	if err != nil {
		return Result{}, err
	}
	return c.store(query, topK, res), nil
}

// lookup returns the cached answer able to serve (query, topK),
// counting the hit or miss. Serving from a larger cached ceiling
// counts as a hit.
func (c *Cached) lookup(query string, topK int) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[query]; ok {
		if e := el.Value.(*cacheEntry); e.serves(topK) {
			c.order.MoveToFront(el)
			c.hits++
			return e.truncate(topK), true
		}
	}
	c.misses++
	return Result{}, false
}

// store memoizes one answer, evicting the least recently used entries
// beyond capacity, and returns the value to serve. An answer fetched
// with a larger ceiling replaces the query's existing entry; a
// concurrent store that can already serve this ceiling wins instead.
func (c *Cached) store(query string, topK int, res Result) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[query]; ok {
		e := el.Value.(*cacheEntry)
		if e.serves(topK) {
			// A concurrent caller cached an answer at least as wide;
			// keep theirs.
			c.order.MoveToFront(el)
			return e.truncate(topK)
		}
		el.Value = &cacheEntry{query: query, topK: topK, res: res}
		c.order.MoveToFront(el)
		return res
	}
	el := c.order.PushFront(&cacheEntry{query: query, topK: topK, res: res})
	c.entries[query] = el
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).query)
	}
	return res
}

// Fetch passes through uncached (documents are fetched once during
// sampling; caching them would only duplicate memory).
func (c *Cached) Fetch(id string) (string, error) { return fetchFrom(c.db, id) }

// Size passes through when available.
func (c *Cached) Size() int { return sizeOf(c.db) }

// Stats returns cache hits and misses so far.
func (c *Cached) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached entries.
func (c *Cached) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
