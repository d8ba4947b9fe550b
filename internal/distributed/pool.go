package distributed

import (
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
)

// Pool and breaker metric names.
const (
	MetricPoolHealthyWorkers = "fbdetect_pool_healthy_workers"
	MetricPoolWorkerHealthy  = "fbdetect_pool_worker_healthy"
	MetricPoolProbes         = "fbdetect_pool_health_probes_total"
	MetricPoolProbeFailures  = "fbdetect_pool_health_probe_failures_total"
	MetricBreakerState       = "fbdetect_breaker_state"
	MetricBreakerTransitions = "fbdetect_breaker_transitions_total"
	MetricBreakerFailures    = "fbdetect_breaker_failures_total"
)

// PoolConfig tunes the health-checked worker pool.
type PoolConfig struct {
	// ProbeInterval is how often Start re-probes every worker's /healthz
	// (default 15s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration
	// Breaker configures the per-worker circuit breakers.
	Breaker resilience.BreakerConfig
}

// withDefaults fills zero fields.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 15 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	return c
}

// poolWorker is one worker's live state inside the pool.
type poolWorker struct {
	url     string
	healthy atomic.Bool
	breaker *resilience.Breaker

	// metric handles; nil-safe when the pool is uninstrumented.
	healthyGauge *obs.Gauge
	stateGauge   *obs.Gauge
	failures     *obs.Counter
}

// WorkerPool tracks worker health (periodic /healthz probes against the
// surface every worker already serves) and guards each worker with a
// circuit breaker. The coordinator orders failover candidates through
// it: healthy, breaker-closed workers first. The worker list is fixed
// at construction, in hash-ring order.
type WorkerPool struct {
	cfg     PoolConfig
	clock   resilience.Clock
	client  *http.Client
	workers []*poolWorker
	byURL   map[string]*poolWorker

	healthyGauge  *obs.Gauge
	probes        *obs.Counter
	probeFailures *obs.Counter
}

// NewWorkerPool builds a pool over worker base URLs. All workers start
// healthy (they are probed, not assumed, from the first CheckNow).
// client and clock may be nil.
func NewWorkerPool(urls []string, client *http.Client, cfg PoolConfig, clock resilience.Clock) *WorkerPool {
	if client == nil {
		client = http.DefaultClient
	}
	if clock == nil {
		clock = resilience.RealClock()
	}
	p := &WorkerPool{
		cfg:    cfg.withDefaults(),
		clock:  clock,
		client: client,
		byURL:  make(map[string]*poolWorker, len(urls)),
	}
	for _, u := range urls {
		w := &poolWorker{url: u, breaker: resilience.NewBreaker(p.cfg.Breaker, clock)}
		w.healthy.Store(true)
		p.workers = append(p.workers, w)
		p.byURL[u] = w
	}
	return p
}

// Instrument publishes pool health and breaker metrics to reg:
// per-worker health and breaker-state gauges, probe counters, breaker
// failure counters, and breaker transition counters by target state.
// Call before probing or routing.
func (p *WorkerPool) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.healthyGauge = reg.NewGauge(MetricPoolHealthyWorkers,
		"Workers whose last /healthz probe succeeded.", nil)
	p.healthyGauge.Set(float64(len(p.workers)))
	p.probes = reg.NewCounter(MetricPoolProbes,
		"Health probes issued.", nil)
	p.probeFailures = reg.NewCounter(MetricPoolProbeFailures,
		"Health probes that failed (worker unreachable or non-200).", nil)
	for _, w := range p.workers {
		w.healthyGauge = reg.NewGauge(MetricPoolWorkerHealthy,
			"1 when the worker's last /healthz probe succeeded.", obs.Labels{"worker": w.url})
		if w.healthy.Load() {
			w.healthyGauge.Set(1)
		}
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
}

// Breaker returns the circuit breaker guarding url (nil if unknown).
func (p *WorkerPool) Breaker(url string) *resilience.Breaker {
	if w := p.byURL[url]; w != nil {
		return w.breaker
	}
	return nil
}

// Healthy reports the worker's last probe outcome (unknown URLs are
// unhealthy).
func (p *WorkerPool) Healthy(url string) bool {
	w := p.byURL[url]
	return w != nil && w.healthy.Load()
}

// recordOutcome feeds one request outcome into the worker's breaker.
func (p *WorkerPool) recordOutcome(url string, success bool) {
	w := p.byURL[url]
	if w == nil {
		return
	}
	if success {
		w.breaker.Success()
		return
	}
	w.failures.Inc()
	w.breaker.Failure()
}

// owner returns the index of the worker that owns service on the hash
// ring.
func (p *WorkerPool) owner(service string) int {
	h := fnv.New32a()
	h.Write([]byte(service))
	return int(h.Sum32()) % len(p.workers)
}

// Candidates returns the failover order for a service: the hash-owned
// primary first, then peers around the ring — with workers that are
// unhealthy or whose breaker is open moved to the back, so a sick
// primary's services land on a healthy peer before ever failing.
func (p *WorkerPool) Candidates(service string) []string {
	n := len(p.workers)
	if n == 0 {
		return nil
	}
	start := p.owner(service)
	ring := make([]*poolWorker, n)
	for i := range ring {
		ring[i] = p.workers[(start+i)%n]
	}
	out := make([]string, 0, n)
	for _, w := range ring { // preferred: probing healthy, breaker not open
		if w.healthy.Load() && w.breaker.State() != resilience.StateOpen {
			out = append(out, w.url)
		}
	}
	for _, w := range ring { // last resort, in the same ring order
		if !(w.healthy.Load() && w.breaker.State() != resilience.StateOpen) {
			out = append(out, w.url)
		}
	}
	return out
}

// CheckNow probes every worker's /healthz once, concurrently, updating
// health flags and gauges. It is the one-shot form of Start.
func (p *WorkerPool) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *poolWorker) {
			defer wg.Done()
			p.probe(ctx, w)
		}(w)
	}
	wg.Wait()
	if p.healthyGauge != nil {
		n := 0
		for _, w := range p.workers {
			if w.healthy.Load() {
				n++
			}
		}
		p.healthyGauge.Set(float64(n))
	}
}

// probe issues one /healthz GET and records the outcome.
func (p *WorkerPool) probe(ctx context.Context, w *poolWorker) {
	p.probes.Inc()
	ctx, cancel := context.WithTimeout(ctx, p.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	ok := false
	if err == nil {
		resp, rerr := p.client.Do(req)
		if rerr == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if !ok {
		p.probeFailures.Inc()
	}
	w.healthy.Store(ok)
	if w.healthyGauge != nil {
		if ok {
			w.healthyGauge.Set(1)
		} else {
			w.healthyGauge.Set(0)
		}
	}
}

// Start probes all workers now and then every ProbeInterval until ctx
// is done. Run it in a goroutine next to a long-lived coordinator.
func (p *WorkerPool) Start(ctx context.Context) {
	for {
		p.CheckNow(ctx)
		if err := p.clock.Sleep(ctx, p.cfg.ProbeInterval); err != nil {
			return
		}
	}
}
