// Package distributed shards detection across a fleet of scan workers,
// the way production FBDetect runs on a serverless platform "scanning
// different time series in parallel ... utilizing capacity equivalent to
// hundreds of servers" (paper §5.1). A Worker wraps a local pipeline
// behind an HTTP endpoint; a Coordinator owns the service-to-worker
// assignment, fans scan requests out, and merges results.
//
// The wire format carries regression summaries (not raw windows): the
// worker that detected a regression keeps its heavy state, and the
// coordinator aggregates what reporting needs.
package distributed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
	"fbdetect/internal/timeseries"
)

// ScanRequest asks a worker to scan one service at a scan time.
type ScanRequest struct {
	Service  string    `json:"service"`
	ScanTime time.Time `json:"scan_time"`
}

// WireRegression is the coordinator-facing summary of a reported
// regression.
type WireRegression struct {
	Metric          string                    `json:"metric"`
	Service         string                    `json:"service"`
	Entity          string                    `json:"entity"`
	Name            string                    `json:"name"`
	Path            string                    `json:"path"`
	ChangePointTime time.Time                 `json:"change_point_time"`
	Before          float64                   `json:"before"`
	After           float64                   `json:"after"`
	Delta           float64                   `json:"delta"`
	Relative        float64                   `json:"relative"`
	RootCauses      []core.RootCauseCandidate `json:"root_causes,omitempty"`
}

// ScanResponse is a worker's reply (or a coordinator's merged sweep, in
// which case Failed lists the services whose scans errored and Scanned
// the services that completed).
type ScanResponse struct {
	Reported []WireRegression `json:"reported"`
	Funnel   core.Funnel      `json:"funnel"`
	Worker   string           `json:"worker"`
	Failed   []string         `json:"failed,omitempty"`
	Scanned  []string         `json:"scanned,omitempty"`
}

// Worker scan-error reasons, the reason label of MetricWorkerScanErrors.
const (
	ErrReasonBadMethod      = "bad_method"
	ErrReasonBadJSON        = "bad_json"
	ErrReasonMissingFields  = "missing_fields"
	ErrReasonUnknownService = "unknown_service"
	ErrReasonScanFailed     = "scan_failed"
	ErrReasonCanceled       = "canceled"
)

// Worker and coordinator metric names.
const (
	MetricWorkerScans       = "fbdetect_worker_scans_total"
	MetricWorkerScanErrors  = "fbdetect_worker_scan_errors_total"
	MetricWorkerScanSeconds = "fbdetect_worker_scan_duration_seconds"
	MetricCoordScans        = "fbdetect_coordinator_scans_total"
	MetricCoordFailures     = "fbdetect_coordinator_scan_failures_total"
	MetricCoordScanSeconds  = "fbdetect_coordinator_scan_duration_seconds"
	MetricCoordRetries      = "fbdetect_coordinator_retries_total"
	MetricCoordFailovers    = "fbdetect_coordinator_failovers_total"
	MetricCoordHedges       = "fbdetect_coordinator_hedges_total"
	MetricCoordHedgeWins    = "fbdetect_coordinator_hedge_wins_total"
	MetricCoordBreakerSkips = "fbdetect_coordinator_breaker_skips_total"
)

// ServedConfig is the detection config of the served stack: the
// pipeline fbdetect-worker scans with and the one fbdetect-server runs
// every tenant scan through. Its windows span 9 h, so a scan finds
// change points once 9 h of a service's data have been ingested.
func ServedConfig() core.Config {
	return core.Config{
		Threshold: 0.001,
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
	}
}

// Worker serves scan requests against a local pipeline.
type Worker struct {
	Name     string
	pipeline *core.Pipeline
	mu       sync.Mutex // serializes scans: the pipeline is not concurrent-safe

	reg      *obs.Registry // nil when uninstrumented
	scans    *obs.Counter
	duration *obs.Histogram
}

// NewWorker wraps a pipeline.
func NewWorker(name string, p *core.Pipeline) *Worker {
	return &Worker{Name: name, pipeline: p}
}

// Instrument publishes the worker's scan count, scan latency, and
// per-reason error counters to reg. Call before serving.
func (w *Worker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.reg = reg
	w.scans = reg.NewCounter(MetricWorkerScans,
		"Scan requests served successfully.", nil)
	w.duration = reg.NewHistogram(MetricWorkerScanSeconds,
		"Wall time of one worker-local pipeline scan.", nil, nil)
	// Pre-register every error reason so the funnel of failures is
	// visible (as zeros) before the first failure happens.
	for _, reason := range []string{
		ErrReasonBadMethod, ErrReasonBadJSON, ErrReasonMissingFields,
		ErrReasonUnknownService, ErrReasonScanFailed, ErrReasonCanceled,
	} {
		w.errCounter(reason)
	}
}

// errCounter returns the error counter for one rejection reason
// (nil-safe when uninstrumented).
func (w *Worker) errCounter(reason string) *obs.Counter {
	return w.reg.NewCounter(MetricWorkerScanErrors,
		"Scan requests rejected or failed, by reason.", obs.Labels{"reason": reason})
}

// ServeHTTP implements the worker's /scan endpoint.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	w.ServeScan(rw, req, w.Scan)
}

// ScanFunc runs one scan of a service at a scan time. Worker.Scan is
// the worker's own; the control plane passes one that namespaces the
// service to the requesting tenant.
type ScanFunc func(ctx context.Context, service string, scanTime time.Time) (*ScanResponse, error)

// ServeScan is the /scan request lifecycle around scan: POST only, a
// ScanRequest of at most 1 MiB with both fields set, then
// ErrUnknownService → 404, a canceled or expired context → 503 and any
// other failure → 500. Every rejection counts under its reason in
// MetricWorkerScanErrors.
func (w *Worker) ServeScan(rw http.ResponseWriter, req *http.Request, scan ScanFunc) {
	if req.Method != http.MethodPost {
		w.errCounter(ErrReasonBadMethod).Inc()
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var sr ScanRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&sr); err != nil {
		w.errCounter(ErrReasonBadJSON).Inc()
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if sr.Service == "" || sr.ScanTime.IsZero() {
		w.errCounter(ErrReasonMissingFields).Inc()
		http.Error(rw, "service and scan_time required", http.StatusBadRequest)
		return
	}
	resp, err := scan(req.Context(), sr.Service, sr.ScanTime)
	switch {
	case errors.Is(err, ErrUnknownService):
		w.errCounter(ErrReasonUnknownService).Inc()
		http.Error(rw, "unknown service: "+sr.Service, http.StatusNotFound)
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		w.errCounter(ErrReasonCanceled).Inc()
		http.Error(rw, "scan canceled: "+err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		w.errCounter(ErrReasonScanFailed).Inc()
		http.Error(rw, "scan failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}

// ErrUnknownService is returned by Worker.Scan for a service with no
// series in the worker's store.
var ErrUnknownService = errors.New("distributed: unknown service")

// Scan runs one worker-local pipeline scan. ServeHTTP is its HTTP form;
// in-process callers like the control plane's async sweep jobs call it
// directly and share the pipeline mutex with the HTTP surface.
func (w *Worker) Scan(ctx context.Context, service string, scanTime time.Time) (*ScanResponse, error) {
	if !w.pipeline.HasService(service) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, service)
	}
	scanStart := time.Now()
	w.mu.Lock()
	// ctx flows into the pipeline: when the coordinator cancels (a hedged
	// twin won, or the sweep was aborted) the scan stops between series,
	// or before the merger records anything; past that point it runs to
	// completion rather than leave candidates undecided.
	res, err := w.pipeline.ScanContext(ctx, service, scanTime)
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	w.duration.Observe(time.Since(scanStart).Seconds())
	w.scans.Inc()
	resp := w.wireResponse(res)
	return &resp, nil
}

// wireResponse converts a pipeline scan result to the wire form.
func (w *Worker) wireResponse(res *core.ScanResult) ScanResponse {
	resp := ScanResponse{Funnel: res.Funnel, Worker: w.Name}
	for _, r := range res.Reported {
		resp.Reported = append(resp.Reported, WireRegression{
			Metric:          string(r.Metric),
			Service:         r.Service,
			Entity:          r.Entity,
			Name:            r.Name,
			Path:            r.Path.String(),
			ChangePointTime: r.ChangePointTime,
			Before:          r.Before,
			After:           r.After,
			Delta:           r.Delta,
			Relative:        r.Relative,
			RootCauses:      r.RootCauses,
		})
	}
	return resp
}

// Options tunes the coordinator's resilience layer. Zero fields take
// defaults.
type Options struct {
	// Retry is the per-worker retry budget for transient failures
	// (network errors, 5xx, 429; default resilience.DefaultPolicy).
	Retry resilience.Policy
	// HedgeDelay, when positive, launches a duplicate request against
	// the same worker if the first hasn't answered within the delay —
	// the tail-latency defense for slow shards. 0 disables hedging.
	HedgeDelay time.Duration
	// RequestTimeout bounds each individual scan attempt (default 60s;
	// a worker-local scan of a big service is seconds of work).
	RequestTimeout time.Duration
	// Breaker configures the per-worker circuit breakers.
	Breaker resilience.BreakerConfig
	// Clock drives backoff, hedging, and breaker cooldowns; tests pass
	// a resilience.FakeClock so nothing really sleeps.
	Clock resilience.Clock
	// Seed feeds the jitter rng, so backoff schedules are reproducible.
	Seed int64
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Retry.MaxAttempts == 0 {
		o.Retry = resilience.DefaultPolicy()
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.Clock == nil {
		o.Clock = resilience.RealClock()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Coordinator assigns services to workers by consistent hash and fans
// scans out over HTTP through a resilience layer: retry with backoff
// and jitter for transient failures, a circuit breaker per worker,
// failover to ring peers in breaker order, and optional hedged
// requests — a service only lands in Failed once every avenue is spent.
type Coordinator struct {
	workers []*worker // fixed at construction, in hash-ring order
	client  *http.Client
	opts    Options
	retry   *resilience.Retryer

	// metric handles; nil-safe when uninstrumented
	scans        *obs.Counter
	failures     *obs.Counter
	duration     *obs.Histogram
	retries      *obs.Counter
	failovers    *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	breakerSkips *obs.Counter
}

// Instrument publishes the coordinator's fan-out and resilience metrics,
// and each worker's breaker metrics, to reg. Call before scanning.
func (c *Coordinator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.scans = reg.NewCounter(MetricCoordScans,
		"Per-service scans dispatched to workers.", nil)
	c.failures = reg.NewCounter(MetricCoordFailures,
		"Per-service scans that failed after retries and failover.", nil)
	c.duration = reg.NewHistogram(MetricCoordScanSeconds,
		"Round-trip time of one dispatched scan, including retries.", nil, nil)
	c.retries = reg.NewCounter(MetricCoordRetries,
		"Scan attempts retried after a transient failure.", nil)
	c.failovers = reg.NewCounter(MetricCoordFailovers,
		"Scans that succeeded on a worker other than the hash-owned primary.", nil)
	c.hedges = reg.NewCounter(MetricCoordHedges,
		"Hedged (duplicate) requests launched against slow workers.", nil)
	c.hedgeWins = reg.NewCounter(MetricCoordHedgeWins,
		"Hedged requests that answered before the original.", nil)
	c.breakerSkips = reg.NewCounter(MetricCoordBreakerSkips,
		"Worker attempts skipped because the circuit breaker was open.", nil)
	for _, w := range c.workers {
		w.instrument(reg)
	}
}

// NewCoordinator returns a coordinator over the given worker base URLs
// (e.g. "http://10.0.0.1:8080") with default Options. client may be nil
// (http.DefaultClient).
func NewCoordinator(workerURLs []string, client *http.Client) (*Coordinator, error) {
	return NewCoordinatorWithOptions(workerURLs, client, Options{})
}

// NewCoordinatorWithOptions returns a coordinator with explicit
// resilience options (zero fields take defaults). The worker list is
// fixed for the coordinator's life; its order is the hash ring's.
func NewCoordinatorWithOptions(workerURLs []string, client *http.Client, opts Options) (*Coordinator, error) {
	if len(workerURLs) == 0 {
		return nil, fmt.Errorf("distributed: at least one worker required")
	}
	if client == nil {
		client = http.DefaultClient
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		client: client,
		opts:   opts,
		retry:  resilience.NewRetryer(opts.Retry, opts.Clock, opts.Seed),
	}
	for _, u := range workerURLs {
		c.workers = append(c.workers, &worker{url: u, breaker: resilience.NewBreaker(opts.Breaker, opts.Clock)})
	}
	c.retry.OnRetry = func(int, time.Duration, error) { c.retries.Inc() }
	return c, nil
}

// WorkerFor returns the worker URL owning a service. Assignment is stable
// for a fixed worker list, so a service's cross-scan deduplication state
// stays on one worker.
func (c *Coordinator) WorkerFor(service string) string {
	return c.workers[c.owner(service)].url
}

// Scan sends one service's scan to its owning worker, with retries,
// breaker gating, and failover to ring peers.
func (c *Coordinator) Scan(service string, scanTime time.Time) (*ScanResponse, error) {
	return c.ScanContext(context.Background(), service, scanTime)
}

// ScanContext is Scan with a caller-controlled context.
func (c *Coordinator) ScanContext(ctx context.Context, service string, scanTime time.Time) (*ScanResponse, error) {
	c.scans.Inc()
	start := time.Now()
	sr, err := c.scanFailover(ctx, service, scanTime)
	c.duration.Observe(time.Since(start).Seconds())
	if err != nil {
		c.failures.Inc()
	}
	return sr, err
}

// scanFailover walks the service's failover candidates — hash-owned
// primary first, then peers, breaker-open workers last — attempting
// each (with per-worker retries) until one answers.
func (c *Coordinator) scanFailover(ctx context.Context, service string, scanTime time.Time) (*ScanResponse, error) {
	primary := c.workers[c.owner(service)]
	var errs []error
	for _, w := range c.candidates(service) {
		if !w.breaker.Allow() {
			c.breakerSkips.Inc()
			errs = append(errs, fmt.Errorf("distributed: worker %s: circuit open", w.url))
			continue
		}
		resp, err := c.scanWorker(ctx, w, service, scanTime)
		if err == nil {
			if w != primary {
				c.failovers.Inc()
			}
			return resp, nil
		}
		errs = append(errs, fmt.Errorf("distributed: worker %s: %w", w.url, err))
		if ctx.Err() != nil {
			// The caller gave up, which says nothing about the worker:
			// hand back the probe slot a half-open breaker granted.
			w.breaker.Release()
			break
		}
	}
	return nil, errors.Join(errs...)
}

// scanWorker runs the retry/hedge loop against one worker, feeding
// every attempt's outcome into the worker's breaker. An attempt whose
// own context is done — a hedge's loser, or a scan its caller canceled
// — records nothing.
func (c *Coordinator) scanWorker(ctx context.Context, w *worker, service string, scanTime time.Time) (*ScanResponse, error) {
	attempt := func(ctx context.Context) (*ScanResponse, error) {
		// Re-check between retries: this worker's own failures may have
		// tripped the breaker, in which case failover beats persistence.
		if w.breaker.State() == resilience.StateOpen {
			return nil, resilience.Permanent(fmt.Errorf("circuit opened during retries"))
		}
		resp, err := c.postScan(ctx, w.url, service, scanTime)
		switch {
		case err == nil:
			w.breaker.Success()
		case ctx.Err() == nil:
			w.failures.Inc()
			w.breaker.Failure()
		}
		return resp, err
	}
	do := attempt
	if c.opts.HedgeDelay > 0 {
		do = func(ctx context.Context) (*ScanResponse, error) {
			v, stats, err := resilience.Hedge(ctx, c.opts.Clock, c.opts.HedgeDelay, attempt)
			if stats.Launched {
				c.hedges.Inc()
			}
			if stats.Won {
				c.hedgeWins.Inc()
			}
			return v, err
		}
	}
	return resilience.Do(ctx, c.retry, do)
}

// postScan issues one /scan POST with the per-attempt deadline. Non-200
// statuses outside {5xx, 429} come back as Permanent: retrying a 404
// only burns budget.
func (c *Coordinator) postScan(ctx context.Context, url, service string, scanTime time.Time) (*ScanResponse, error) {
	body, err := json.Marshal(ScanRequest{Service: service, ScanTime: scanTime})
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	target := url + "/scan"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("distributed: posting to %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		serr := fmt.Errorf("distributed: worker %s: %s: %s", target, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, resilience.Permanent(serr)
		}
		return nil, serr
	}
	var sr ScanResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("distributed: decoding response: %w", err)
	}
	return &sr, nil
}

// maxConcurrent caps ScanAll's fan-out.
const maxConcurrent = 16

// ScanAll fans a scan of every service out (at most maxConcurrent in
// flight) and merges the responses. Per-service errors never abort the
// sweep, and a service only lands in Failed after its retry and
// failover budget is spent: every failing service is recorded in the
// merged response's Failed list (sorted) and in the joined error, while
// completed services are listed in Scanned — so one dead worker costs
// nothing as long as a healthy peer can cover its services.
func (c *Coordinator) ScanAll(services []string, scanTime time.Time) (*ScanResponse, error) {
	return c.ScanAllContext(context.Background(), services, scanTime)
}

// ScanAllContext is ScanAll with a caller-controlled context.
func (c *Coordinator) ScanAllContext(ctx context.Context, services []string, scanTime time.Time) (*ScanResponse, error) {
	merged := &ScanResponse{Worker: "coordinator"}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var scanErrs []error
	sem := make(chan struct{}, maxConcurrent)
	for _, svc := range services {
		wg.Add(1)
		sem <- struct{}{}
		go func(svc string) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := c.ScanContext(ctx, svc, scanTime)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				merged.Failed = append(merged.Failed, svc)
				scanErrs = append(scanErrs, fmt.Errorf("service %s: %w", svc, err))
				return
			}
			merged.Scanned = append(merged.Scanned, svc)
			merged.Funnel.Add(resp.Funnel)
			merged.Reported = append(merged.Reported, resp.Reported...)
		}(svc)
	}
	wg.Wait()
	// Fan-out completion order is nondeterministic; sort so Failed,
	// Scanned, and the joined error read stably.
	sort.Strings(merged.Failed)
	sort.Strings(merged.Scanned)
	sort.Slice(scanErrs, func(i, j int) bool { return scanErrs[i].Error() < scanErrs[j].Error() })
	return merged, errors.Join(scanErrs...)
}
