// Package probeexec is the concurrent probe-execution engine: it owns
// how live probes reach hidden databases — bounded worker pools,
// per-backend circuit breakers, optional request hedging — and runs
// the paper's APro loop on top. The engine reproduces the sequential
// greedy algorithm exactly; a probe the loop proves comes next may leave
// before the one in flight answers, and is still folded in the policy's
// order. Backend failures degrade the selection gracefully instead
// of failing it: broken databases are excluded and the result is
// flagged Degraded.
package probeexec

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state for one backend.
type BreakerState int32

const (
	// BreakerClosed admits all probes (healthy backend).
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits one trial probe after the cooldown.
	BreakerHalfOpen
	// BreakerOpen rejects probes until the cooldown elapses.
	BreakerOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes the per-backend circuit breakers.
type BreakerConfig struct {
	// Disabled turns breakers off entirely (every probe is admitted).
	Disabled bool
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects probes before
	// admitting a half-open trial (default 30s).
	Cooldown time.Duration
	// HalfOpenSuccesses is the number of consecutive trial successes
	// that close a half-open breaker (default 1).
	HalfOpenSuccesses int
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 1
	}
	return c
}

// probeOutcome classifies how a probe ended for breaker accounting.
type probeOutcome int

const (
	probeSuccess probeOutcome = iota
	probeFailure
	// probeCancelled means the caller abandoned the probe (hedge loser,
	// early start never picked, selection done). It says nothing about the
	// backend's health and must not move the breaker.
	probeCancelled
)

// breaker is a closed → open → half-open circuit breaker for one
// backend. Consecutive failures open it; while open, probes are
// rejected without touching the backend; after the cooldown a single
// trial probe is admitted at a time, and enough trial successes close
// it again.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive failures (closed state)
	successes int       // consecutive trial successes (half-open state)
	openedAt  time.Time // when the breaker last opened
	inTrial   bool      // a half-open trial probe is in flight
}

// newBreaker returns a closed breaker; now defaults to time.Now.
func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg.withDefaults(), now: now}
}

// Allow reports whether a probe may proceed, transitioning an expired
// open breaker to half-open. A true return from a half-open breaker
// claims the single trial slot; the caller must invoke Record with the
// probe's outcome to release it.
func (b *breaker) Allow() bool {
	if b.cfg.Disabled {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.successes = 0
		b.inTrial = true
		return true
	case BreakerHalfOpen:
		if b.inTrial {
			return false
		}
		b.inTrial = true
		return true
	}
	return false
}

// Record feeds one probe outcome back. Cancelled probes release the
// trial slot without moving the state: a hedge loser or an abandoned
// early start is not evidence about the backend.
func (b *breaker) Record(o probeOutcome) {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.inTrial = false
	}
	switch o {
	case probeCancelled:
		return
	case probeSuccess:
		switch b.state {
		case BreakerClosed:
			b.failures = 0
		case BreakerHalfOpen:
			b.successes++
			if b.successes >= b.cfg.HalfOpenSuccesses {
				b.state = BreakerClosed
				b.failures = 0
			}
		}
	case probeFailure:
		switch b.state {
		case BreakerClosed:
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				b.open()
			}
		case BreakerHalfOpen:
			// The trial failed: back to a full cooldown.
			b.open()
		}
	}
}

// open transitions to the open state (mu held).
func (b *breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.successes = 0
	b.inTrial = false
}

// State returns the current state without transitioning it.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
