package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int32

const (
	// StateClosed: requests flow; failures are being counted.
	StateClosed State = iota
	// StateHalfOpen: cooled down; exactly one probe request is allowed.
	StateHalfOpen
	// StateOpen: tripped; requests are rejected until the cooldown ends.
	StateOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half_open"
	case StateOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through (default 30s).
	Cooldown time.Duration
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker guarding one worker.
// The coordinator stops sending to a tripped worker and fails services
// over to healthy peers; after Cooldown one probe is let through, and
// its outcome either closes the breaker or re-opens it.
type Breaker struct {
	cfg   BreakerConfig
	clock Clock
	// OnTransition, when set, observes every state change (for
	// metrics). Called without the breaker lock held.
	OnTransition func(from, to State)

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker returns a closed breaker. clock may be nil (RealClock).
func NewBreaker(cfg BreakerConfig, clock Clock) *Breaker {
	if clock == nil {
		clock = RealClock()
	}
	return &Breaker{cfg: cfg.withDefaults(), clock: clock}
}

// State returns the breaker's current position (open still reads open
// during cooldown; the open→half-open transition happens in Allow).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a request may proceed. In the open state it
// transitions to half-open once the cooldown has elapsed and admits a
// single probe; concurrent callers are rejected until the probe's
// outcome is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var transition func()
	allowed := false
	switch b.state {
	case StateClosed:
		allowed = true
	case StateOpen:
		if b.clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			transition = b.setState(StateHalfOpen)
			b.probing = true
			allowed = true
		}
	case StateHalfOpen:
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	b.mu.Unlock()
	if transition != nil {
		transition()
	}
	return allowed
}

// Success records a successful request, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.probing = false
	var transition func()
	if b.state != StateClosed {
		transition = b.setState(StateClosed)
	}
	b.mu.Unlock()
	if transition != nil {
		transition()
	}
}

// Failure records a failed request: it re-opens a half-open breaker
// immediately and trips a closed one once the consecutive-failure
// threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	b.probing = false
	var transition func()
	switch b.state {
	case StateHalfOpen:
		b.openedAt = b.clock.Now()
		transition = b.setState(StateOpen)
	case StateClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.openedAt = b.clock.Now()
			transition = b.setState(StateOpen)
		}
	}
	b.mu.Unlock()
	if transition != nil {
		transition()
	}
}

// Release gives back a request Allow admitted without recording an
// outcome, for a request its caller canceled: a half-open breaker
// admits its next caller as the probe instead.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// setState switches states under the lock and returns the deferred
// OnTransition call to run after unlocking (nil when unobserved).
func (b *Breaker) setState(to State) func() {
	from := b.state
	b.state = to
	if b.OnTransition == nil || from == to {
		return nil
	}
	cb := b.OnTransition
	return func() { cb(from, to) }
}
