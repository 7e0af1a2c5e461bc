// Package probeexec is the concurrent probe-execution engine: it owns
// how live probes reach hidden databases — one bounded pool of probe
// slots and per-backend circuit breakers — and runs the paper's APro
// loop on top. The engine reproduces the sequential greedy algorithm
// exactly; a probe the loop proves comes next may leave before the one
// in flight answers, and is still folded in the policy's order. Backend
// failures degrade the selection gracefully instead of failing it:
// broken databases are excluded and the result is flagged Degraded.
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

const (
	// breakerFailures is the number of consecutive failures that opens a
	// backend's breaker.
	breakerFailures = 5
	// breakerCooldown is how long an open breaker rejects probes before
	// it admits a half-open trial.
	breakerCooldown = 30 * time.Second
)

// probeOutcome classifies how a probe ended for breaker accounting.
type probeOutcome int

const (
	probeSuccess probeOutcome = iota
	probeFailure
	// probeCancelled means the caller abandoned the probe (early start
	// never picked, selection done). It says nothing about the backend's
	// health and must not move the breaker.
	probeCancelled
)

// breaker is a closed → open → half-open circuit breaker for one
// backend. breakerFailures consecutive failures open it; while open,
// probes are rejected without touching the backend; after
// breakerCooldown one trial probe is admitted at a time, and its
// success closes the breaker again.
type breaker struct {
	now func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures (closed state)
	openedAt time.Time // when the breaker last opened
	inTrial  bool      // a half-open trial probe is in flight
}

// newBreaker returns a closed breaker reading the time from now.
func newBreaker(now func() time.Time) *breaker {
	return &breaker{now: now}
}

// Allow reports whether a probe may proceed, transitioning an expired
// open breaker to half-open. A true return from a half-open breaker
// claims the single trial slot; the caller must invoke Record with the
// probe's outcome to release it.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = BreakerHalfOpen
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
// trial slot without moving the state: an abandoned early start is not
// evidence about the backend.
func (b *breaker) Record(o probeOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.inTrial = false
	}
	switch o {
	case probeCancelled:
		return
	case probeSuccess:
		// A probe admitted before the breaker opened may answer while it
		// is open; only the cooldown's trial closes it.
		if b.state != BreakerOpen {
			b.state = BreakerClosed
			b.failures = 0
		}
	case probeFailure:
		switch b.state {
		case BreakerClosed:
			b.failures++
			if b.failures >= breakerFailures {
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
	b.inTrial = false
}

// State returns the current state without transitioning it.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
