// Package resilience holds the retry loop ingest clients run against
// transient worker errors (exponential backoff + jitter, honouring a
// server's Retry-After), an injectable Clock, and a deterministic
// fault-injecting HTTP transport, so retries, rate limits and ring walks
// are testable without real sleeps or flaky networks — the detector's
// own reliability is part of what the paper's production deployment has
// to guarantee (§5.1 runs the scan fan-out on a serverless platform
// where individual executions fail routinely).
package resilience

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts wall time so retry backoff and rate-limit refills can
// run against virtual time in tests.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// realClock is the production Clock.
type realClock struct{}

// RealClock returns the Clock backed by the system timer.
func RealClock() Clock { return realClock{} }

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fakeWaiter is one pending Sleep on a FakeClock.
type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// FakeClock is a manually advanced Clock. A Sleep returns when Advance
// moves the clock past its deadline, which makes timer-driven paths
// (backoff, rate-limit refills) fully deterministic with no real sleeps.
//
// With AutoAdvance enabled the clock instead jumps forward immediately
// whenever anything waits on it, recording the requested durations —
// the right mode for integration tests that only need "backoff happened
// on the virtual timeline" without choreographing Advance calls.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	auto    bool
	slept   []time.Duration
	waiters []*fakeWaiter
}

// NewFakeClock returns a FakeClock reading now.
func NewFakeClock(now time.Time) *FakeClock {
	return &FakeClock{now: now}
}

// AutoAdvance switches the clock to auto mode (see type doc) and
// returns the clock for chaining.
func (c *FakeClock) AutoAdvance() *FakeClock {
	c.mu.Lock()
	c.auto = true
	c.mu.Unlock()
	return c
}

// Now returns the current virtual time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Slept returns the total virtual duration slept in auto mode.
func (c *FakeClock) Slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total time.Duration
	for _, d := range c.slept {
		total += d
	}
	return total
}

// after returns a channel firing when the virtual clock passes now+d.
func (c *FakeClock) after(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if c.auto {
		c.now = c.now.Add(d)
		c.slept = append(c.slept, d)
		ch <- c.now
		return ch
	}
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, &fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Sleep blocks until Advance passes now+d (or immediately in auto
// mode), or until ctx is done.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ch := c.after(d)
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Advance moves the clock forward by d, firing every timer whose
// deadline has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}
