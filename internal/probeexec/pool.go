package probeexec

import (
	"context"
	"fmt"
	"sync/atomic"

	"metaprobe/internal/obs"
)

// maxInflight is the number of probes an executor lets into flight at
// once, across every backend and every selection running on it, so a
// burst of concurrent queries cannot stampede the backends.
const maxInflight = 16

// pool is a counting semaphore of probe slots. Acquisition is
// context-aware so a cancelled selection stops waiting for capacity
// immediately.
type pool struct {
	slots chan struct{}

	inflight     atomic.Int64
	inflightG    *obs.Gauge
	inflightHist *obs.Histogram
}

// newPool builds a pool of size slots, exporting mp_probe_inflight
// (current) and mp_probe_inflight_at_acquire (distribution, for p99s)
// to reg. A nil registry is fine. Every executor on one registry moves
// the same gauge by ±1, so it reads the process's in-flight count.
func newPool(size int, reg *obs.Registry) *pool {
	p := &pool{
		slots:        make(chan struct{}, size),
		inflightG:    reg.Gauge("mp_probe_inflight", nil),
		inflightHist: reg.Histogram("mp_probe_inflight_at_acquire", nil),
	}
	reg.Help("mp_probe_inflight", "Probes currently in flight across all backends.")
	reg.Help("mp_probe_inflight_at_acquire", "In-flight probe count sampled as each probe acquires its slot.")
	return p
}

// acquire claims a slot for one probe, blocking until capacity frees up
// or ctx is done. Each successful acquire must be matched by exactly one
// release, after the underlying call returns.
func (p *pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return fmt.Errorf("probeexec: waiting for probe slot: %w", ctx.Err())
	}
	p.took()
	return nil
}

// tryAcquire claims a slot only if one is free now, and reports whether
// it did. A true return is matched by one release, as acquire's is.
func (p *pool) tryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		p.took()
		return true
	default:
		return false
	}
}

// took counts a slot just claimed.
func (p *pool) took() {
	n := p.inflight.Add(1)
	p.inflightG.Add(1)
	p.inflightHist.Observe(float64(n))
}

// release gives back the slot of one finished probe.
func (p *pool) release() {
	p.inflight.Add(-1)
	p.inflightG.Add(-1)
	<-p.slots
}

// Inflight returns the number of probes currently holding slots.
func (p *pool) Inflight() int64 { return p.inflight.Load() }
