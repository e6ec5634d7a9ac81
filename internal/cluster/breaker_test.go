package cluster

import (
	"testing"
	"time"
)

// admit is a test helper: allow() asserting admission, returning the settle
// callback.
func admit(t *testing.T, b *breaker, what string) func(int) {
	t.Helper()
	settle, ok := b.allow()
	if !ok {
		t.Fatalf("breaker refused %s", what)
	}
	return settle
}

// refused asserts allow() declines the request.
func refused(t *testing.T, b *breaker, what string) {
	t.Helper()
	if _, ok := b.allow(); ok {
		t.Fatalf("breaker admitted %s", what)
	}
}

// TestBreakerStateMachine drives the three-state machine on a fake clock:
// closed trips open after threshold consecutive failures, open refuses
// until the cooldown, half-open admits exactly one probe, and the probe's
// outcome decides between closed and another open period.
func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	var transitions []int
	b := newBreaker(3, time.Second, func(s int) { transitions = append(transitions, s) })
	b.now = func() time.Time { return clock }

	// Closed: failures below the threshold keep admitting.
	for i := 0; i < 2; i++ {
		admit(t, b, "a closed-state request")(outcomeFailure)
	}
	if got := b.snapshot(); got != breakerClosed {
		t.Fatalf("state after 2/3 failures = %s", breakerStateName(got))
	}

	// A success resets the streak: two more failures must not trip it.
	admit(t, b, "a closed-state request")(outcomeSuccess)
	admit(t, b, "a closed-state request")(outcomeFailure)
	admit(t, b, "a closed-state request")(outcomeFailure)
	if got := b.snapshot(); got != breakerClosed {
		t.Fatalf("streak survived a success: state = %s", breakerStateName(got))
	}

	// The third consecutive failure trips it open.
	admit(t, b, "a closed-state request")(outcomeFailure)
	if got := b.snapshot(); got != breakerOpen {
		t.Fatalf("state after threshold failures = %s", breakerStateName(got))
	}
	refused(t, b, "a request inside the cooldown")

	// Cooldown elapses: exactly one half-open probe is admitted.
	clock = clock.Add(time.Second + time.Millisecond)
	probe := admit(t, b, "the half-open probe")
	if got := b.snapshot(); got != breakerHalfOpen {
		t.Fatalf("state during probe = %s", breakerStateName(got))
	}
	refused(t, b, "a second concurrent probe")

	// Probe failure re-opens for another full cooldown.
	probe(outcomeFailure)
	if got := b.snapshot(); got != breakerOpen {
		t.Fatalf("state after failed probe = %s", breakerStateName(got))
	}
	refused(t, b, "a request right after the re-open")

	// Second probe succeeds: closed again, and failures count from zero.
	clock = clock.Add(time.Second + time.Millisecond)
	admit(t, b, "the second probe")(outcomeSuccess)
	if got := b.snapshot(); got != breakerClosed {
		t.Fatalf("state after successful probe = %s", breakerStateName(got))
	}
	admit(t, b, "closed-state traffic")

	want := []int{breakerOpen, breakerHalfOpen, breakerOpen, breakerHalfOpen, breakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i,
				breakerStateName(transitions[i]), breakerStateName(want[i]))
		}
	}
}

// TestBreakerAbandonedProbeReleasesSlot covers the latch regression: a
// half-open probe whose attempt ends without a worker-attributable outcome
// (caller-side cancellation) must release the probe slot, so the next
// request is admitted as a fresh probe instead of the breaker refusing
// traffic forever. Settling the same attempt twice must be a no-op.
func TestBreakerAbandonedProbeReleasesSlot(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(1, time.Second, nil)
	b.now = func() time.Time { return clock }

	admit(t, b, "the tripping request")(outcomeFailure) // threshold 1: open
	clock = clock.Add(time.Second + time.Millisecond)

	// The probe is abandoned (e.g. another worker won and the solve ctx
	// was cancelled): the breaker stays half-open but must re-admit.
	probe := admit(t, b, "the first probe")
	probe(outcomeAbandoned)
	if got := b.snapshot(); got != breakerHalfOpen {
		t.Fatalf("state after abandoned probe = %s", breakerStateName(got))
	}
	second := admit(t, b, "the probe after an abandoned one")

	// The stale settle callback is spent; it must not release the live
	// probe's slot or mutate state.
	probe(outcomeFailure)
	if got := b.snapshot(); got != breakerHalfOpen {
		t.Fatalf("spent settle mutated state to %s", breakerStateName(got))
	}
	refused(t, b, "a concurrent probe while one is in flight")

	second(outcomeSuccess)
	if got := b.snapshot(); got != breakerClosed {
		t.Fatalf("state after successful probe = %s", breakerStateName(got))
	}
}

// TestBreakerDisabled asserts a zero threshold turns the breaker off
// entirely: it always admits and never changes state.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(0, time.Second, func(int) { t.Fatal("disabled breaker fired a transition") })
	for i := 0; i < 10; i++ {
		admit(t, b, "a request on a disabled breaker")(outcomeFailure)
	}
	if got := b.snapshot(); got != breakerClosed {
		t.Fatalf("disabled breaker state = %s", breakerStateName(got))
	}
}
