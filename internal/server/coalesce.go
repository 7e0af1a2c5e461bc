package server

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"metaprobe"
	"metaprobe/internal/obs"
)

// The batch coalescer merges concurrent requests that would run the
// identical selection — same tenant, query, k, metric, threshold,
// probe budget and served tier — into one underlying probe trajectory,
// and fans the single SelectionResult out to every waiter. Selection
// is deterministic given a model version, so all waiters would have
// received byte-identical answers anyway; coalescing just stops the
// daemon from paying for the same probes N times when a hot query
// arrives from many users at once.
//
// The shared run executes under the *server's* lifetime context, not
// any single caller's: a waiter that gives up (its HTTP client
// disconnects, its deadline fires) stops waiting without cancelling
// the probe trajectory the remaining waiters still need. If every
// waiter abandons the run its result is simply discarded on
// completion — one wasted trajectory, bounded by the run timeout.

// call is one in-flight coalesced selection.
type call struct {
	done chan struct{}
	res  *metaprobe.SelectionResult
	err  error
	// waiters is written under coalescer.mu while the call is listed;
	// the final value is published before done closes.
	waiters int64
}

// coalescer deduplicates concurrent identical selections.
type coalescer struct {
	mu    sync.Mutex
	calls map[string]*call
	// runCtx outlives every request; leader runs detach onto it.
	runCtx context.Context

	// reg receives the mp_batch_* series; nil disables them. series
	// holds each tenant's, resolved on its first request (under mu).
	reg    *obs.Registry
	series map[string]*batchSeries
	fanout *obs.Histogram
}

// batchSeries are one tenant's coalescer counters; their sum is the
// requests that entered the coalescer.
type batchSeries struct {
	runs, coalesced *obs.Counter
}

// newCoalescer wires the coalescer's metrics into reg (nil disables
// them). runCtx bounds leader runs; it should be the server's
// lifetime context.
func newCoalescer(runCtx context.Context, reg *obs.Registry) *coalescer {
	c := &coalescer{
		calls:  make(map[string]*call),
		runCtx: runCtx,
		reg:    reg,
		series: make(map[string]*batchSeries),
	}
	if reg != nil {
		reg.Help("mp_batch_runs_total", "Underlying selection runs executed (coalesce leaders), per tenant.")
		reg.Help("mp_batch_coalesced_total", "Requests that joined an already-inflight identical selection, per tenant.")
		reg.Help("mp_batch_fanout", "Waiters served per completed coalesced run (1 = no sharing).")
		c.fanout = reg.Histogram("mp_batch_fanout", nil)
	}
	return c
}

// seriesFor returns the tenant's counters (dead ones without a
// registry). Callers hold c.mu.
func (c *coalescer) seriesFor(tenant string) *batchSeries {
	s, ok := c.series[tenant]
	if !ok {
		lbl := obs.Labels{"tenant": tenant}
		s = &batchSeries{
			runs:      c.reg.Counter("mp_batch_runs_total", lbl),
			coalesced: c.reg.Counter("mp_batch_coalesced_total", lbl),
		}
		c.series[tenant] = s
	}
	return s
}

// coalesceKey builds the identity under which requests share one run.
// The tier is part of the key: a full-service answer must never be
// fanned out to a request that was admitted at (and will be labeled
// with) a degraded tier, and vice versa.
func coalesceKey(tenant, query string, k int, metric string, t float64, maxProbes int, tier Tier) string {
	var b strings.Builder
	b.Grow(len(tenant) + len(query) + len(metric) + 32)
	b.WriteString(tenant)
	b.WriteByte(0x1f)
	b.WriteString(query)
	b.WriteByte(0x1f)
	b.WriteString(metric)
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(k))
	b.WriteByte(0x1f)
	b.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(maxProbes))
	b.WriteByte(0x1f)
	b.WriteString(tier.String())
	return b.String()
}

// do runs fn once per concurrent key: the first arrival (the leader)
// launches fn on the coalescer's detached run context; arrivals while
// that run is in flight wait for its result instead of running their
// own. Every waiter — leader included — returns as soon as the shared
// result is ready or its own ctx is done, whichever comes first; a
// caller abandoning the wait never cancels the shared run.
//
// The returned joined flag reports whether this request rode an
// already-inflight run (false for the leader), and fanout how many
// requests the completed run served (0 when the caller's ctx expired
// before the run finished).
func (c *coalescer) do(ctx context.Context, tenant, key string, fn func(ctx context.Context) (*metaprobe.SelectionResult, error)) (ans *metaprobe.SelectionResult, joined bool, fanout int64, err error) {
	c.mu.Lock()
	ser := c.seriesFor(tenant)
	if cl, ok := c.calls[key]; ok {
		cl.waiters++
		c.mu.Unlock()
		ser.coalesced.Inc()
		select {
		case <-cl.done:
			return cl.res, true, cl.waiters, cl.err
		case <-ctx.Done():
			return nil, true, 0, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{}), waiters: 1}
	c.calls[key] = cl
	c.mu.Unlock()
	ser.runs.Inc()
	go func() {
		res, err := fn(c.runCtx)
		// Unlist before publishing: a request arriving after this point
		// starts a fresh run instead of receiving a stale answer.
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		cl.res, cl.err = res, err
		close(cl.done)
		if c.fanout != nil {
			c.fanout.Observe(float64(cl.waiters))
		}
	}()
	select {
	case <-cl.done:
		return cl.res, false, cl.waiters, cl.err
	case <-ctx.Done():
		return nil, false, 0, ctx.Err()
	}
}
