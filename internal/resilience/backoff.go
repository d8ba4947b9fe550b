package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Policy shapes a retry loop: up to MaxAttempts tries with exponential
// backoff between them, each delay widened by seeded jitter so a fleet
// of clients retrying the same sick worker doesn't stampede it.
type Policy struct {
	MaxAttempts int           // total attempts, including the first (min 1)
	BaseDelay   time.Duration // delay before the first retry
	MaxDelay    time.Duration // cap on any single delay (0 = uncapped)
	Multiplier  float64       // growth factor per retry (default 2)
	Jitter      float64       // fraction of each delay randomized in [0,1]
}

// Delay returns the backoff before retry number retry (0-based), drawing
// jitter from rng. Deterministic for a fixed rng state.
func (p Policy) Delay(retry int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	for i := 0; i < retry; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		// Full-jitter on the randomized fraction: keep (1-j)·d, draw the
		// rest uniformly, so delays spread without ever shrinking to 0.
		d = d*(1-j) + rng.Float64()*d*j
	}
	return time.Duration(d)
}

// retryAfterError carries a server-provided backoff hint alongside a
// retryable error — the Retry-After header of a 429 or 503. Retry loops
// honor the hint in place of the policy's computed backoff: when the
// server says how long it needs, guessing with exponential jitter only
// hammers it sooner.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// RetryAfter wraps a retryable err with a server-provided delay hint.
// Non-positive hints return err unchanged.
func RetryAfter(err error, after time.Duration) error {
	if err == nil || after <= 0 {
		return err
	}
	return &retryAfterError{err: err, after: after}
}

// RetryAfterHint extracts a server-provided delay hint from err.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// permanentError marks an error that retrying cannot fix (a 404, a
// malformed request); Do stops immediately on one.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so retry loops stop instead of burning budget.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Retryer runs functions under a Policy with a shared, seeded jitter
// source. Safe for concurrent use.
type Retryer struct {
	Policy Policy
	Clock  Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryer returns a Retryer with a seeded jitter source. clock may be
// nil (RealClock).
func NewRetryer(p Policy, clock Clock, seed int64) *Retryer {
	if clock == nil {
		clock = RealClock()
	}
	return &Retryer{Policy: p, Clock: clock, rng: rand.New(rand.NewSource(seed))}
}

// delay draws the next backoff under the lock protecting the rng.
func (r *Retryer) delay(retry int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Policy.Delay(retry, r.rng)
}

// Do runs f under r's policy and returns its value. (A package-level
// function because Go methods cannot be generic.)
func Do[T any](ctx context.Context, r *Retryer, f func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	attempts := r.Policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return zero, lastErr
			}
			return zero, err
		}
		v, err := f(ctx)
		if err == nil {
			return v, nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return zero, pe.err
		}
		lastErr = err
		if attempt == attempts-1 {
			break
		}
		d := r.delay(attempt)
		if hint, ok := RetryAfterHint(err); ok {
			// Honor the server's hint, still bounded by the policy cap so
			// a hostile or confused server cannot park the client forever.
			d = hint
			if r.Policy.MaxDelay > 0 && d > r.Policy.MaxDelay {
				d = r.Policy.MaxDelay
			}
		}
		if err := r.Clock.Sleep(ctx, d); err != nil {
			return zero, lastErr
		}
	}
	return zero, lastErr
}
