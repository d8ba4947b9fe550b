// Package distributed shards detection across a fleet of scan workers,
// the way production FBDetect runs on a serverless platform "scanning
// different time series in parallel ... utilizing capacity equivalent to
// hundreds of servers" (paper §5.1). A Worker wraps a local pipeline
// behind an HTTP endpoint; a Coordinator hashes each service to an
// owner worker, asks the ring peers in turn when the owner cannot answer,
// fans scan requests out, and merges results.
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
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/obs"
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

// Worker metric names.
const (
	MetricWorkerScans       = "fbdetect_worker_scans_total"
	MetricWorkerScanErrors  = "fbdetect_worker_scan_errors_total"
	MetricWorkerScanSeconds = "fbdetect_worker_scan_duration_seconds"
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
// the control plane's tenant /scan calls it directly and shares the
// pipeline mutex with the HTTP surface.
func (w *Worker) Scan(ctx context.Context, service string, scanTime time.Time) (*ScanResponse, error) {
	if !w.pipeline.HasService(service) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, service)
	}
	scanStart := time.Now()
	w.mu.Lock()
	// ctx flows into the pipeline: when the caller gives up (its request
	// deadline passed, or its sweep was aborted)
	// the scan stops between series, or before the merger records
	// anything; past that point it runs to completion rather than leave
	// candidates undecided.
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

// requestTimeout bounds one worker's answer to one scan request: a
// worker-local scan of a big service is seconds of work.
const requestTimeout = 60 * time.Second

// Coordinator assigns services to workers by consistent hash and fans
// scans out over HTTP. A scan walks the ring once, from the service's
// owner through each peer in ring order. Any failure, a 404 ("I do not
// hold this service") included, moves it to the next worker; a service
// fails only when every worker has failed it. No worker is asked twice:
// a worker's pipeline reports a regression once, so repeating a request
// that failed after the worker scanned would answer with nothing, while
// a peer has not seen the scan.
type Coordinator struct {
	urls   []string // fixed at construction, in hash-ring order
	client *http.Client
}

// NewCoordinator returns a coordinator over the given worker base URLs
// (e.g. "http://10.0.0.1:8080"). client may be nil (http.DefaultClient).
// The worker list is fixed for the coordinator's life; its order is the
// hash ring's.
func NewCoordinator(workerURLs []string, client *http.Client) (*Coordinator, error) {
	if len(workerURLs) == 0 {
		return nil, fmt.Errorf("distributed: at least one worker required")
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Coordinator{urls: workerURLs, client: client}, nil
}

// owner returns the index of the worker that owns service on the hash
// ring. The modulus is taken in uint32 so 32-bit platforms agree with
// 64-bit ones on hashes of 2³¹ and above.
func (c *Coordinator) owner(service string) int {
	h := fnv.New32a()
	h.Write([]byte(service))
	return int(h.Sum32() % uint32(len(c.urls)))
}

// ScanContext asks each worker in ring order, from the service's owner,
// to scan it, and returns the first answer. A done ctx stops the walk.
// The error joins every asked worker's failure.
func (c *Coordinator) ScanContext(ctx context.Context, service string, scanTime time.Time) (*ScanResponse, error) {
	start := c.owner(service)
	var errs []error
	for i := range c.urls {
		url := c.urls[(start+i)%len(c.urls)]
		resp, err := c.postScan(ctx, url, service, scanTime)
		if err == nil {
			return resp, nil
		}
		errs = append(errs, fmt.Errorf("distributed: worker %s: %w", url, err))
		if ctx.Err() != nil {
			break
		}
	}
	return nil, errors.Join(errs...)
}

// postScan issues one /scan POST under requestTimeout. Any status but
// 200 is an error.
func (c *Coordinator) postScan(ctx context.Context, url, service string, scanTime time.Time) (*ScanResponse, error) {
	body, err := json.Marshal(ScanRequest{Service: service, ScanTime: scanTime})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/scan", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sr ScanResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &sr, nil
}

// maxConcurrent caps ScanAll's fan-out.
const maxConcurrent = 16

// ScanAll fans a scan of every service out (at most maxConcurrent in
// flight) and merges the responses. Per-service errors never abort the
// sweep, and a service only lands in Failed once every worker has failed
// it: every failing service is recorded in the merged response's Failed
// list (sorted) and in the joined error, while completed services are
// listed in Scanned — so one dead worker costs nothing as long as a
// healthy peer can cover its services.
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
