package obs

import (
	"context"
	"sync"
	"time"
)

// CostAccount accumulates the probe cost of one selection: probes
// issued (including hedges and cancelled early starts — everything that
// consumed backend capacity), hedge outcomes, cache hits, bytes
// fetched, and wall time per backend. The paper treats probing cost as
// the budget the adaptive loop spends; this makes the *operational*
// spend of a single request first-class instead of only visible as
// fleet-wide counters.
//
// An account travels through context.Context (WithCost) so the
// executor and the hidden-Web client can charge it from any goroutine;
// all methods are concurrency-safe and nil-tolerant.
type CostAccount struct {
	mu        sync.Mutex
	probes    int
	hedges    int
	hedgeWins int
	cacheHits int
	bytes     int64
	wall      time.Duration
	backends  map[string]*BackendCost
}

// BackendCost is the spend against one backend.
type BackendCost struct {
	Probes int     `json:"probes"`
	Errors int     `json:"errors"`
	WallMs float64 `json:"wall_ms"`
	Bytes  int64   `json:"bytes"`
}

// CostSummary is the immutable snapshot surfaced on SelectionResult.
type CostSummary struct {
	ProbesIssued   int                    `json:"probes_issued"`
	HedgesLaunched int                    `json:"hedges_launched"`
	HedgesWon      int                    `json:"hedges_won"`
	HedgesWasted   int                    `json:"hedges_wasted"`
	CacheHits      int                    `json:"cache_hits"`
	BytesFetched   int64                  `json:"bytes_fetched"`
	WallMs         float64                `json:"wall_ms"`
	Backends       map[string]BackendCost `json:"backends,omitempty"`
}

// NewCostAccount returns an empty account.
func NewCostAccount() *CostAccount { return &CostAccount{} }

type costKey struct{}

// WithCost attaches acct to ctx so downstream probe machinery can
// charge it.
func WithCost(ctx context.Context, acct *CostAccount) context.Context {
	if acct == nil {
		return ctx
	}
	return context.WithValue(ctx, costKey{}, acct)
}

// CostFromContext returns the account carried by ctx, or nil.
func CostFromContext(ctx context.Context) *CostAccount {
	if ctx == nil {
		return nil
	}
	acct, _ := ctx.Value(costKey{}).(*CostAccount)
	return acct
}

// backend returns the per-backend record, creating it lazily (mu held).
func (a *CostAccount) backend(name string) *BackendCost {
	if a.backends == nil {
		a.backends = make(map[string]*BackendCost, 8)
	}
	b, ok := a.backends[name]
	if !ok {
		b = &BackendCost{}
		a.backends[name] = b
	}
	return b
}

// AddProbe charges one issued probe against name with its wall time;
// failed marks a probe that ended in error.
func (a *CostAccount) AddProbe(name string, wall time.Duration, failed bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.probes++
	a.wall += wall
	b := a.backend(name)
	b.Probes++
	b.WallMs += float64(wall) / float64(time.Millisecond)
	if failed {
		b.Errors++
	}
}

// AddHedge charges one launched hedge attempt.
func (a *CostAccount) AddHedge() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.hedges++
	a.mu.Unlock()
}

// AddHedgeWin records that a hedge attempt produced the winning
// result.
func (a *CostAccount) AddHedgeWin() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.hedgeWins++
	a.mu.Unlock()
}

// AddCacheHit records a result served from cache (no wire cost).
func (a *CostAccount) AddCacheHit() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.cacheHits++
	a.mu.Unlock()
}

// AddBytes charges n response bytes fetched from name.
func (a *CostAccount) AddBytes(name string, n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.mu.Lock()
	a.bytes += n
	a.backend(name).Bytes += n
	a.mu.Unlock()
}

// Summary snapshots the account. Hedges that did not win are reported
// as wasted: their result was discarded (or cancelled) after the other
// attempt answered. A nil account returns the zero summary.
func (a *CostAccount) Summary() CostSummary {
	if a == nil {
		return CostSummary{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := CostSummary{
		ProbesIssued:   a.probes,
		HedgesLaunched: a.hedges,
		HedgesWon:      a.hedgeWins,
		HedgesWasted:   a.hedges - a.hedgeWins,
		CacheHits:      a.cacheHits,
		BytesFetched:   a.bytes,
		WallMs:         float64(a.wall) / float64(time.Millisecond),
	}
	if len(a.backends) > 0 {
		out.Backends = make(map[string]BackendCost, len(a.backends))
		for k, v := range a.backends {
			out.Backends[k] = *v
		}
	}
	return out
}
