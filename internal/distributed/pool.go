package distributed

import (
	"hash/fnv"

	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
)

// Breaker metric names.
const (
	MetricBreakerState       = "fbdetect_breaker_state"
	MetricBreakerTransitions = "fbdetect_breaker_transitions_total"
	MetricBreakerFailures    = "fbdetect_breaker_failures_total"
)

// worker is one scan worker as the coordinator sees it: a base URL and
// the circuit breaker guarding it.
type worker struct {
	url     string
	breaker *resilience.Breaker

	// metric handles; nil-safe when uninstrumented.
	stateGauge *obs.Gauge
	failures   *obs.Counter
}

// instrument publishes the worker's breaker-state gauge, breaker
// failure counter, and breaker transition counters by target state.
func (w *worker) instrument(reg *obs.Registry) {
	w.stateGauge = reg.NewGauge(MetricBreakerState,
		"Circuit state per worker: 0 closed, 1 half-open, 2 open.", obs.Labels{"worker": w.url})
	w.failures = reg.NewCounter(MetricBreakerFailures,
		"Failed requests recorded against the worker's breaker.", obs.Labels{"worker": w.url})
	w.breaker.OnTransition = func(_, to resilience.State) {
		w.stateGauge.Set(float64(to))
		reg.NewCounter(MetricBreakerTransitions,
			"Breaker state changes, by worker and new state.",
			obs.Labels{"worker": w.url, "to": to.String()}).Inc()
	}
}

// owner returns the index of the worker that owns service on the hash
// ring. The modulus is taken in uint32 so 32-bit platforms agree with
// 64-bit ones on hashes of 2³¹ and above.
func (c *Coordinator) owner(service string) int {
	h := fnv.New32a()
	h.Write([]byte(service))
	return int(h.Sum32() % uint32(len(c.workers)))
}

// candidates returns the failover order for a service: the hash-owned
// primary first, then peers around the ring, with workers whose breaker
// is open moved to the back in the same ring order, so a sick primary's
// services land on a healthy peer before ever failing.
func (c *Coordinator) candidates(service string) []*worker {
	n := len(c.workers)
	start := c.owner(service)
	out := make([]*worker, 0, n)
	var open []*worker
	for i := 0; i < n; i++ {
		w := c.workers[(start+i)%n]
		if w.breaker.State() == resilience.StateOpen {
			open = append(open, w)
		} else {
			out = append(out, w)
		}
	}
	return append(out, open...)
}
