package server

import (
	"sync"
	"sync/atomic"
	"time"

	"metaprobe/internal/obs"
)

// Tier is the service level a request is answered at. Under pressure
// the daemon never errors a well-formed request; it degrades the
// answer instead and labels the response honestly.
type Tier int

const (
	// TierFull runs the paper's full adaptive-probing selection
	// (RD-based set search plus live probes to the certainty target).
	TierFull Tier = iota
	// TierRDOnly skips live probing: the RD-based set with the highest
	// expected correctness is returned as-is, with its (possibly below-
	// threshold) certainty. Zero backend traffic, full model quality.
	TierRDOnly
	// TierRhatOnly ranks by the raw summary estimate r̂ alone — the
	// pre-paper baseline. Cheapest possible answer: no probes, no RD
	// convolution, no certainty claim.
	TierRhatOnly
	// numTiers sizes the per-tier series arrays.
	numTiers = int(TierRhatOnly) + 1
)

// String returns the wire form reported in the response "tier" field
// and used as the mp_shed_total / mp_server_requests_total label.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierRDOnly:
		return "rd_only"
	case TierRhatOnly:
		return "rhat_only"
	}
	return "unknown"
}

// Shed reasons (the reason label on mp_shed_total).
const (
	// shedOverload: the global inflight gauge crossed a soft or hard
	// limit — the process is protecting its own latency.
	shedOverload = "overload"
	// shedTenantRate: the tenant exhausted its token bucket — one noisy
	// tenant is being degraded so the others keep full service.
	shedTenantRate = "tenant_rate"
)

// tokenBucket is a concurrency-safe token bucket: capacity burst,
// refilled at rate tokens/second. rate <= 0 means unlimited (allow
// always succeeds). now is injectable for tests.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// newTokenBucket returns a full bucket. burst <= 0 defaults to 1.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := float64(burst)
	if b <= 0 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, now: time.Now}
}

// allow consumes one token, reporting false when the bucket is empty.
func (b *tokenBucket) allow() bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admission is the daemon's load-shedding state machine. Every request
// takes a ticket (acquire) before running and returns it (release)
// after; the ticket's tier is decided from the global inflight count
// and the requesting tenant's token bucket:
//
//	inflight > hard          → rhat_only   (overload)
//	inflight > soft          → rd_only     (overload)
//	tenant bucket empty      → rd_only     (tenant_rate)
//	otherwise                → full
//
// The limits bound concurrent *admitted requests*, which is the demand
// signal — the batch coalescer downstream may satisfy many tickets
// with one probe trajectory, so actual probe work is at most, and
// usually far below, the admitted count.
type admission struct {
	soft, hard int64
	inflight   atomic.Int64
	// peak tracks the high-water mark of inflight since start (for the
	// drain log line and tests).
	peak atomic.Int64

	reg *obs.Registry
}

// newAdmission builds the controller. soft <= 0 disables the rd_only
// overload threshold; hard <= 0 disables the rhat_only one. When both
// are set, hard below soft is lifted to soft (a hard limit tighter
// than the soft one would skip the intermediate tier entirely).
func newAdmission(soft, hard int64, reg *obs.Registry) *admission {
	if hard > 0 && soft > 0 && hard < soft {
		hard = soft
	}
	a := &admission{soft: soft, hard: hard, reg: reg}
	if reg != nil {
		reg.Help("mp_server_inflight", "Admitted selection requests currently in flight.")
		reg.GaugeFunc("mp_server_inflight", nil, func() float64 { return float64(a.inflight.Load()) })
		reg.Help("mp_shed_total", "Requests degraded below full service, by served tier and shed reason.")
		// Pre-create the shed series so /metrics shows zeros at idle —
		// the CI smoke job asserts exactly that.
		for _, tier := range []Tier{TierRDOnly, TierRhatOnly} {
			reg.Counter("mp_shed_total", obs.Labels{"tier": tier.String(), "reason": shedOverload})
		}
		reg.Counter("mp_shed_total", obs.Labels{"tier": TierRDOnly.String(), "reason": shedTenantRate})
	}
	return a
}

// acquire admits one request, returning the tier it should be served
// at and, when degraded, the shed reason. Callers must release() when
// the request finishes, whatever the outcome.
func (a *admission) acquire(bucket *tokenBucket) (Tier, string) {
	n := a.inflight.Add(1)
	for {
		p := a.peak.Load()
		if n <= p || a.peak.CompareAndSwap(p, n) {
			break
		}
	}
	tier, reason := TierFull, ""
	switch {
	case a.hard > 0 && n > a.hard:
		tier, reason = TierRhatOnly, shedOverload
	case a.soft > 0 && n > a.soft:
		tier, reason = TierRDOnly, shedOverload
	case !bucket.allow():
		tier, reason = TierRDOnly, shedTenantRate
	}
	if reason != "" && a.reg != nil {
		a.reg.Counter("mp_shed_total", obs.Labels{"tier": tier.String(), "reason": reason}).Inc()
	}
	return tier, reason
}

// release returns one admission ticket.
func (a *admission) release() { a.inflight.Add(-1) }

// Inflight reports the currently admitted requests.
func (a *admission) Inflight() int64 { return a.inflight.Load() }

// Peak reports the inflight high-water mark.
func (a *admission) Peak() int64 { return a.peak.Load() }
