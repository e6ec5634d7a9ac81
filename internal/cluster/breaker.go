package cluster

import (
	"sync"
	"time"
)

// Per-worker circuit breaker. Every worker carries one; the forwarding path
// asks allow() before sending a solve and settles the admitted attempt's
// outcome through the callback allow returns. The state machine is the
// classic three-state breaker:
//
//	closed    — requests flow; consecutive failures are counted.
//	open      — threshold consecutive failures tripped it; requests are
//	            skipped (the next rendezvous rank takes the solve) until
//	            the cooldown elapses.
//	half-open — after the cooldown ONE probe request is admitted; success
//	            closes the breaker, failure re-opens it for another
//	            cooldown, and an abandoned probe (caller-side cancellation,
//	            no evidence either way) releases the probe slot so the next
//	            request probes again.
//
// The breaker complements — not replaces — liveness: leases and probes
// decide who is in the fleet, the breaker decides whether a member that is
// nominally up should receive traffic right now. Only failures that
// indicate worker trouble (transport errors, 5xx, shed) count; request
// errors (4xx) and caller-side cancellation do not.

// Breaker states, exported through the ircluster_breaker_state gauge and
// the fleet view.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// Outcomes of one admitted attempt, passed to the settle callback allow
// returns.
const (
	// outcomeSuccess closes the breaker and resets the failure streak.
	outcomeSuccess = iota
	// outcomeFailure counts against the worker: it trips a closed breaker
	// at the threshold and re-opens a half-open one.
	outcomeFailure
	// outcomeAbandoned records an attempt that ended without evidence about
	// the worker (caller-side cancellation, solve already won elsewhere): no
	// state change, but a held half-open probe slot is released so the
	// breaker can never latch with a probe that will never report.
	outcomeAbandoned
)

// breakerStateName renders a breaker state for the fleet view.
func breakerStateName(s int) string {
	switch s {
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// breaker is one worker's circuit breaker. A zero threshold disables it
// (allow always admits, outcomes are ignored).
type breaker struct {
	threshold int           // consecutive failures to trip open
	cooldown  time.Duration // open → half-open delay
	onState   func(state int)

	mu       sync.Mutex
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	now      func() time.Time
}

func newBreaker(threshold int, cooldown time.Duration, onState func(int)) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, onState: onState, now: time.Now}
}

var noopSettle = func(int) {}

// allow reports whether a request may be sent through this breaker right
// now. In the open state it transitions to half-open once the cooldown has
// elapsed and admits exactly one probe. An admitted attempt MUST settle by
// calling the returned callback with its outcome when it finishes — for
// any reason, including cancellation — so a half-open probe slot is always
// released; extra calls are ignored.
func (b *breaker) allow() (settle func(outcome int), ok bool) {
	if b.threshold <= 0 {
		return noopSettle, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	probe := false
	switch b.state {
	case breakerClosed:
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return nil, false
		}
		b.setLocked(breakerHalfOpen)
		b.probing = true
		probe = true
	default: // half-open: only the single in-flight probe
		if b.probing {
			return nil, false
		}
		b.probing = true
		probe = true
	}
	var once sync.Once
	return func(outcome int) {
		once.Do(func() { b.settle(probe, outcome) })
	}, true
}

// settle records one admitted attempt's outcome. probe marks the attempt
// that holds the half-open probe slot; settling it — however it ended —
// releases the slot.
func (b *breaker) settle(probe bool, outcome int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch outcome {
	case outcomeSuccess:
		b.fails = 0
		if b.state != breakerClosed {
			b.setLocked(breakerClosed)
		}
	case outcomeFailure:
		switch b.state {
		case breakerClosed:
			b.fails++
			if b.fails >= b.threshold {
				b.trip()
			}
		case breakerHalfOpen:
			b.trip()
		case breakerOpen:
			// Late result from before the trip; the clock keeps running.
		}
	case outcomeAbandoned:
		// No evidence about the worker; only the probe slot (released
		// above) mattered.
	}
}

// trip opens the breaker and restarts the cooldown clock. Caller holds mu.
func (b *breaker) trip() {
	b.fails = 0
	b.openedAt = b.now()
	b.setLocked(breakerOpen)
}

// setLocked transitions the state and fires the hook. Caller holds mu.
func (b *breaker) setLocked(state int) {
	b.state = state
	if b.onState != nil {
		b.onState(state)
	}
}

// snapshot returns the current state without transitions (for the fleet
// view; a cooled-down open breaker still reads open until traffic probes
// it).
func (b *breaker) snapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
