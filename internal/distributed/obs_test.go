package distributed

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/obs"
)

// fetchMetrics GETs /metrics and parses the text exposition into a map
// from "name{labels}" to value.
func fetchMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func metricValue(t *testing.T, m map[string]float64, key string) float64 {
	t.Helper()
	v, ok := m[key]
	if !ok {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		t.Fatalf("metric %q not exposed; have:\n%s", key, strings.Join(keys, "\n"))
	}
	return v
}

// TestWorkerMetricsEndToEnd is the acceptance path: start a worker on
// the full binary mux, run a scan through the coordinator, then read
// /metrics back and check the stage histograms, funnel counters, and
// HTTP metrics agree with the scan's own Funnel. The debug surface
// (/healthz, /debug/pprof/) must respond on the same mux.
func TestWorkerMetricsEndToEnd(t *testing.T) {
	w, end := buildWorker(t, "w1", "svc-a", 1, true)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	obs.RegisterBuildInfo(reg, "fbdetect-worker")
	w.pipeline.Instrument(reg, tracer)
	w.Instrument(reg)
	srv := httptest.NewServer(NewMux(w, reg, tracer))
	defer srv.Close()

	coord, err := NewCoordinator([]string{srv.URL}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	coord.Instrument(reg)
	resp, err := coord.Scan("svc-a", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reported) == 0 {
		t.Fatalf("regression not reported; funnel %+v", resp.Funnel)
	}

	m := fetchMetrics(t, srv.URL)
	f := resp.Funnel

	// Funnel counters must equal the funnel the worker returned.
	stageOut := func(stage string) float64 {
		return metricValue(t, m, fmt.Sprintf(`fbdetect_stage_out_total{stage=%q}`, stage))
	}
	if got := stageOut("changepoint"); got != float64(f.ChangePoints) {
		t.Errorf("changepoint out = %v, funnel says %d", got, f.ChangePoints)
	}
	if got := stageOut("wentaway"); got != float64(f.AfterWentAway) {
		t.Errorf("wentaway out = %v, funnel says %d", got, f.AfterWentAway)
	}
	if got := stageOut("som_dedup"); got != float64(f.AfterSOMDedup) {
		t.Errorf("som_dedup out = %v, funnel says %d", got, f.AfterSOMDedup)
	}
	if got := stageOut("pairwise"); got != float64(f.AfterPairwise) {
		t.Errorf("pairwise out = %v, funnel says %d", got, f.AfterPairwise)
	}
	if got := metricValue(t, m, `fbdetect_stage_in_total{stage="wentaway"}`); got != float64(f.ChangePoints) {
		t.Errorf("wentaway in = %v, want %d", got, f.ChangePoints)
	}

	// Stage-latency histograms recorded observations.
	if got := metricValue(t, m, `fbdetect_stage_duration_seconds_count{stage="changepoint"}`); got <= 0 {
		t.Errorf("changepoint latency count = %v, want > 0", got)
	}
	if got := metricValue(t, m, `fbdetect_stage_duration_seconds_count{stage="pairwise"}`); got != 1 {
		t.Errorf("pairwise latency count = %v, want 1", got)
	}

	// HTTP middleware saw exactly the coordinator's one POST.
	if got := metricValue(t, m, `fbdetect_http_requests_total{code="200",route="/scan"}`); got != 1 {
		t.Errorf("http 200s = %v, want 1", got)
	}
	if got := metricValue(t, m, `fbdetect_http_request_duration_seconds_count{route="/scan"}`); got != 1 {
		t.Errorf("http duration count = %v, want 1", got)
	}
	if got := metricValue(t, m, `fbdetect_http_in_flight{route="/scan"}`); got != 0 {
		t.Errorf("in-flight = %v, want 0", got)
	}

	// Worker, coordinator, and build-info metrics are present.
	if got := metricValue(t, m, "fbdetect_worker_scans_total"); got != 1 {
		t.Errorf("worker scans = %v, want 1", got)
	}
	if got := metricValue(t, m, "fbdetect_coordinator_scans_total"); got != 1 {
		t.Errorf("coordinator scans = %v, want 1", got)
	}
	found := false
	for k := range m {
		if strings.HasPrefix(k, "fbdetect_build_info{") &&
			strings.Contains(k, `component="fbdetect-worker"`) {
			found = true
		}
	}
	if !found {
		t.Error("build info gauge missing")
	}

	// The scan trace landed in the ring buffer.
	if traces := tracer.Recent(1); len(traces) != 1 || traces[0].Attrs["service"] != "svc-a" {
		t.Errorf("scan trace missing: %+v", traces)
	}

	// Debug surface on the same mux.
	for _, path := range []string{"/healthz", "/debug/pprof/", "/metrics.json", "/debug/traces"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, r.StatusCode)
		}
	}
}

// TestWorkerErrorPathsCounted drives every rejection path and checks
// both the HTTP status and the per-reason error counters.
func TestWorkerErrorPathsCounted(t *testing.T) {
	w, _ := buildWorker(t, "w1", "svc-a", 2, false)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	srv := httptest.NewServer(NewMux(w, reg, nil))
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/scan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Bad method.
	resp, err := http.Get(srv.URL + "/scan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
	// Malformed JSON.
	if code := post("{"); code != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", code)
	}
	// Missing fields.
	if code := post("{}"); code != http.StatusBadRequest {
		t.Errorf("missing fields status = %d, want 400", code)
	}
	// Unknown service (twice, to see the counter accumulate).
	body := `{"service":"nope","scan_time":"2024-08-01T09:00:00Z"}`
	for i := 0; i < 2; i++ {
		if code := post(body); code != http.StatusNotFound {
			t.Errorf("unknown service status = %d, want 404", code)
		}
	}

	errCount := func(reason string) float64 {
		return reg.NewCounter(MetricWorkerScanErrors, "", obs.Labels{"reason": reason}).Value()
	}
	for reason, want := range map[string]float64{
		ErrReasonBadMethod:      1,
		ErrReasonBadJSON:        1,
		ErrReasonMissingFields:  1,
		ErrReasonUnknownService: 2,
		ErrReasonScanFailed:     0,
	} {
		if got := errCount(reason); got != want {
			t.Errorf("error counter %q = %v, want %v", reason, got, want)
		}
	}
	if got := reg.NewCounter(MetricWorkerScans, "", nil).Value(); got != 0 {
		t.Errorf("successful scans = %v, want 0", got)
	}

	// The same numbers round-trip through the exposition format, and the
	// middleware classified every response as an error.
	m := fetchMetrics(t, srv.URL)
	if got := metricValue(t, m, `fbdetect_worker_scan_errors_total{reason="unknown_service"}`); got != 2 {
		t.Errorf("exposed unknown_service = %v, want 2", got)
	}
	if got := metricValue(t, m, `fbdetect_http_errors_total{route="/scan"}`); got != 5 {
		t.Errorf("http errors = %v, want 5", got)
	}
	if got := metricValue(t, m, `fbdetect_http_requests_total{code="404",route="/scan"}`); got != 2 {
		t.Errorf("http 404s = %v, want 2", got)
	}
}

// TestScanAllAggregatesErrors checks the sweep keeps going past dead
// workers: healthy services still merge, every failing service is named
// in Failed and in the joined error, and the failure counter counts them.
func TestScanAllAggregatesErrors(t *testing.T) {
	w, end := buildWorker(t, "w1", "svc-a", 3, true)
	srv := httptest.NewServer(w)
	defer srv.Close()
	dead := "http://127.0.0.1:1"

	newCoord := func(urls ...string) *Coordinator {
		c, err := NewCoordinator(urls, &http.Client{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coord := newCoord(srv.URL, dead)
	if coord.WorkerFor("svc-a") != srv.URL {
		coord = newCoord(dead, srv.URL)
	}
	if coord.WorkerFor("svc-a") != srv.URL {
		t.Fatal("cannot route svc-a to the live worker")
	}
	// Find two service names that hash to the dead worker.
	var deadSvcs []string
	for i := 0; len(deadSvcs) < 2 && i < 1000; i++ {
		name := fmt.Sprintf("ghost-%d", i)
		if coord.WorkerFor(name) == dead {
			deadSvcs = append(deadSvcs, name)
		}
	}
	if len(deadSvcs) < 2 {
		t.Fatal("hash never routed to the dead worker")
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)

	merged, err := coord.ScanAll(append([]string{"svc-a"}, deadSvcs...), end)
	if err == nil {
		t.Fatal("dead-worker services should surface an error")
	}
	// The healthy service's results survived the partial failure.
	if len(merged.Reported) == 0 || merged.Funnel.ChangePoints == 0 {
		t.Errorf("healthy service lost: %+v", merged)
	}
	// Every failed service is reported, in sorted order.
	if len(merged.Failed) != 2 || merged.Failed[0] != deadSvcs[0] && merged.Failed[0] != deadSvcs[1] {
		t.Errorf("Failed = %v, want both of %v", merged.Failed, deadSvcs)
	}
	for i := 1; i < len(merged.Failed); i++ {
		if merged.Failed[i-1] >= merged.Failed[i] {
			t.Errorf("Failed not sorted: %v", merged.Failed)
		}
	}
	for _, svc := range deadSvcs {
		if !strings.Contains(err.Error(), "service "+svc+":") {
			t.Errorf("error does not name %s: %v", svc, err)
		}
	}
	if got := reg.NewCounter(MetricCoordFailures, "", nil).Value(); got != 2 {
		t.Errorf("failure counter = %v, want 2", got)
	}
	if got := reg.NewCounter(MetricCoordScans, "", nil).Value(); got != 3 {
		t.Errorf("scan counter = %v, want 3", got)
	}
}
