package resilience

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FaultAction is what an applied fault rule does to a request. Exactly
// one of the fields should be set (checked in the order listed).
type FaultAction struct {
	// Drop fails the request with a synthetic connection error, as if
	// the worker process died.
	Drop bool
	// Hang blocks until the request's context is canceled — a worker
	// that accepted the connection and went silent.
	Hang bool
	// Delay sleeps on the transport's clock before forwarding.
	Delay time.Duration
	// Status synthesizes an HTTP response with this status code (and
	// Body, if set) without contacting the server.
	Status int
	Body   string
}

// FaultRule selects which requests a FaultAction applies to. Matching
// is by host and path; the Skip/Count window and seeded Prob then pick
// occurrences within the matching traffic, so schedules like "fail the
// first two /scan requests to worker A" are exact and reproducible.
type FaultRule struct {
	Host   string  // URL host to match ("" = any)
	Path   string  // URL path to match ("" = any)
	Skip   int     // let this many matching requests through untouched first
	Count  int     // then apply to this many (0 = all subsequent)
	Prob   float64 // apply with this probability, from the seeded rng (0 = always)
	Action FaultAction
	// OnApply, when set, runs as the fault is applied (n counts applied
	// faults for this rule, from 1). Use it to kill a server mid-sweep.
	OnApply func(n int)
}

// faultRuleState pairs a rule with its match/apply counters.
type faultRuleState struct {
	rule    FaultRule
	matched int
	applied int
}

// DroppedError is the synthetic connection error a Drop action returns.
type DroppedError struct{ URL string }

func (e *DroppedError) Error() string {
	return fmt.Sprintf("resilience: fault injection dropped request to %s", e.URL)
}

// FaultTransport is a deterministic fault-injecting http.RoundTripper:
// it drops, hangs, delays, or rewrites selected requests on a seeded
// schedule and forwards the rest to the wrapped transport. It is how
// the coordinator's ring walk is exercised in tests without flaky
// real-network failures.
type FaultTransport struct {
	next  http.RoundTripper
	clock Clock

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*faultRuleState
	requests map[string]int // per-host forwarded+faulted request counts
}

// NewFaultTransport wraps next (nil = http.DefaultTransport) with a
// seeded fault schedule. clock may be nil (RealClock) and is only used
// by Delay actions.
func NewFaultTransport(seed int64, next http.RoundTripper, clock Clock) *FaultTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	if clock == nil {
		clock = RealClock()
	}
	return &FaultTransport{
		next:     next,
		clock:    clock,
		rng:      rand.New(rand.NewSource(seed)),
		requests: make(map[string]int),
	}
}

// Rule adds a fault rule and returns the transport for chaining.
func (t *FaultTransport) Rule(r FaultRule) *FaultTransport {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = append(t.rules, &faultRuleState{rule: r})
	return t
}

// Requests returns how many requests (faulted or forwarded) have been
// seen for host.
func (t *FaultTransport) Requests(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests[host]
}

// RoundTrip applies the first matching-and-selected rule's action, or
// forwards the request.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.requests[req.URL.Host]++
	var action *FaultAction
	var onApply func(int)
	applied := 0
	for _, st := range t.rules {
		r := &st.rule
		if r.Host != "" && r.Host != req.URL.Host {
			continue
		}
		if r.Path != "" && r.Path != req.URL.Path {
			continue
		}
		st.matched++
		occ := st.matched // 1-based occurrence among matches
		if occ <= r.Skip {
			continue
		}
		if r.Count > 0 && occ > r.Skip+r.Count {
			continue
		}
		if r.Prob > 0 && t.rng.Float64() >= r.Prob {
			continue
		}
		st.applied++
		applied = st.applied
		action = &r.Action
		onApply = r.OnApply
		break
	}
	t.mu.Unlock()

	if action == nil {
		return t.next.RoundTrip(req)
	}
	if onApply != nil {
		onApply(applied)
	}
	switch {
	case action.Drop:
		return nil, &DroppedError{URL: req.URL.String()}
	case action.Hang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case action.Delay > 0:
		if err := t.clock.Sleep(req.Context(), action.Delay); err != nil {
			return nil, err
		}
		return t.next.RoundTrip(req)
	case action.Status != 0:
		body := action.Body
		if body == "" {
			body = http.StatusText(action.Status)
		}
		return &http.Response{
			StatusCode: action.Status,
			Status:     fmt.Sprintf("%d %s", action.Status, http.StatusText(action.Status)),
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	// A zero action forwards; useful when only OnApply matters.
	return t.next.RoundTrip(req)
}
