package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)

func TestPolicyDelayGrowthAndCap(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestPolicyJitterBoundsAndDeterminism(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(7))
	var first []time.Duration
	for i := 0; i < 20; i++ {
		d := p.Delay(2, rng) // un-jittered delay is 400ms
		first = append(first, d)
		if d < 200*time.Millisecond || d > 400*time.Millisecond {
			t.Errorf("jittered delay %v outside [200ms, 400ms]", d)
		}
	}
	// Same seed, same schedule.
	rng = rand.New(rand.NewSource(7))
	for i, w := range first {
		if got := p.Delay(2, rng); got != w {
			t.Errorf("draw %d = %v, want %v (not deterministic)", i, got, w)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	clock := NewFakeClock(t0).AutoAdvance()
	r := NewRetryer(Policy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, Multiplier: 2}, clock, 1)
	calls := 0
	v, err := Do(context.Background(), r, func(context.Context) (string, error) {
		calls++
		if calls <= 2 {
			return "", fmt.Errorf("transient %d", calls)
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = (%q, %v), want (ok, nil)", v, err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Backoff ran on the virtual clock: 50ms + 100ms.
	if got := clock.Slept(); got != 150*time.Millisecond {
		t.Errorf("virtual backoff = %v, want 150ms", got)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	clock := NewFakeClock(t0).AutoAdvance()
	r := NewRetryer(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}, clock, 1)
	calls := 0
	boom := errors.New("boom")
	_, err := Do(context.Background(), r, func(context.Context) (struct{}, error) { calls++; return struct{}{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	clock := NewFakeClock(t0).AutoAdvance()
	r := NewRetryer(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, clock, 1)
	calls := 0
	notFound := errors.New("404 not found")
	_, err := Do(context.Background(), r, func(context.Context) (struct{}, error) {
		calls++
		return struct{}{}, Permanent(notFound)
	})
	if !errors.Is(err, notFound) {
		t.Fatalf("err = %v, want the unwrapped permanent error", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retries after Permanent)", calls)
	}
	if err != notFound {
		t.Errorf("err = %#v, want it unwrapped from Permanent", err)
	}
}

func TestRetryHonorsContextCancel(t *testing.T) {
	clock := NewFakeClock(t0).AutoAdvance()
	r := NewRetryer(Policy{MaxAttempts: 10, BaseDelay: time.Millisecond}, clock, 1)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := Do(ctx, r, func(context.Context) (struct{}, error) {
		calls++
		cancel()
		return struct{}{}, errors.New("failing while canceled")
	})
	if err == nil {
		t.Fatal("want error after cancel")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cancel stops the loop)", calls)
	}
}

func TestFakeClockManualAdvance(t *testing.T) {
	clock := NewFakeClock(t0)
	ch := clock.after(100 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	clock.Advance(99 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	clock.Advance(time.Millisecond)
	select {
	case at := <-ch:
		if !at.Equal(t0.Add(100 * time.Millisecond)) {
			t.Errorf("fired at %v", at)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	if got := clock.Now(); !got.Equal(t0.Add(100 * time.Millisecond)) {
		t.Errorf("Now = %v", got)
	}
}
