package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRetryAfterWrapUnwrap(t *testing.T) {
	base := errors.New("overloaded")
	err := RetryAfter(base, 3*time.Second)
	if d, ok := RetryAfterHint(err); !ok || d != 3*time.Second {
		t.Fatalf("hint = %v,%v; want 3s,true", d, ok)
	}
	if !errors.Is(err, base) {
		t.Fatal("RetryAfter must preserve the error chain")
	}
	// The hint survives further wrapping, the way call sites add context.
	wrapped := fmt.Errorf("worker w1: %w", err)
	if d, ok := RetryAfterHint(wrapped); !ok || d != 3*time.Second {
		t.Fatalf("wrapped hint = %v,%v; want 3s,true", d, ok)
	}
	if RetryAfter(nil, time.Second) != nil {
		t.Fatal("RetryAfter(nil) must stay nil")
	}
	if got := RetryAfter(base, 0); got != base {
		t.Fatal("non-positive hints must return the error unchanged")
	}
	if _, ok := RetryAfterHint(base); ok {
		t.Fatal("unhinted error must report no hint")
	}
}

func TestRetryerHonorsRetryAfterHint(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0)).AutoAdvance()
	// Jitter 0 so the policy's own delays would be exactly 50ms/100ms —
	// distinguishable from the 7s hints.
	r := NewRetryer(Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond,
		MaxDelay: time.Minute, Multiplier: 2}, clock, 1)
	calls := 0
	_, err := Do(context.Background(), r, func(ctx context.Context) (struct{}, error) {
		calls++
		if calls < 3 {
			return struct{}{}, RetryAfter(errors.New("busy"), 7*time.Second)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Slept(), 14*time.Second; got != want {
		t.Fatalf("slept %v, want both hints honored (%v)", got, want)
	}
}

func TestRetryerCapsRetryAfterHint(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0)).AutoAdvance()
	r := NewRetryer(Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond,
		MaxDelay: 2 * time.Second, Multiplier: 2}, clock, 1)
	calls := 0
	Do(context.Background(), r, func(ctx context.Context) (struct{}, error) {
		calls++
		return struct{}{}, RetryAfter(errors.New("busy"), time.Hour)
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if got, want := clock.Slept(), 2*time.Second; got != want {
		t.Fatalf("slept %v, want the policy cap (%v)", got, want)
	}
}
