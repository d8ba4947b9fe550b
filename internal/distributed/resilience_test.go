package distributed

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// mustHost returns the host:port of a test server URL, the form fault
// rules match on.
func mustHost(t *testing.T, rawurl string) string {
	t.Helper()
	u, err := url.Parse(rawurl)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// ownerIndex mirrors Coordinator.WorkerFor's hash so tests can place
// services before any coordinator exists.
func ownerIndex(service string, workers int) int {
	h := fnv.New32a()
	h.Write([]byte(service))
	return int(h.Sum32() % uint32(workers))
}

// buildReplicatedWorker simulates every listed service into one shared
// store and wraps a pipeline over all of them — a replica that can serve
// any service, the deployment shape failover assumes.
func buildReplicatedWorker(t *testing.T, name string, services []string, seed int64) (*Worker, time.Time) {
	t.Helper()
	db := tsdb.New(time.Minute)
	var log changelog.Log
	end := t0.Add(9 * time.Hour)
	for i, svcName := range services {
		root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
			{Name: "work", SelfWeight: 30},
			{Name: "other", SelfWeight: 69},
		}}
		tree, err := fleet.NewTree(root)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := fleet.NewService(fleet.Config{
			Name: svcName, Servers: 5000, Step: time.Minute,
			SamplesPerStep: 2e5, BaseCPU: 0.5, CPUNoise: 0.05,
			BaseThroughput: 1000, Tree: tree, Seed: seed + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Run(db, &log, t0, end); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{
		Threshold: 0.001,
		MetricThresholds: map[string]float64{
			"throughput": 0.05, "cpu": 0.05, "latency": 0.05,
		},
		MetricRelative: map[string]bool{"throughput": true, "cpu": true, "latency": true},
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	p, err := core.NewPipeline(cfg, db, &log, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorker(name, p), end
}

// TestScanAllRetriesTransientFaults is the acceptance path for the
// resilience layer: a worker fails its first two requests via injected
// faults, yet ScanAll returns a complete result with nothing in Failed,
// and /metrics shows the retries and breaker failures that covered for
// it. The fake clock proves no real time was slept on backoff.
func TestScanAllRetriesTransientFaults(t *testing.T) {
	w, end := buildWorker(t, "w1", "svc-a", 1, true)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	srv := httptest.NewServer(NewMux(w, reg, nil))
	defer srv.Close()

	clock := resilience.NewFakeClock(t0).AutoAdvance()
	ft := resilience.NewFaultTransport(1, nil, nil).
		FailFirst(mustHost(t, srv.URL), 2, http.StatusInternalServerError)
	coord, err := NewCoordinatorWithOptions([]string{srv.URL}, &http.Client{Transport: ft}, Options{
		Clock: clock, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Instrument(reg)

	merged, err := coord.ScanAll([]string{"svc-a"}, end)
	if err != nil {
		t.Fatalf("ScanAll with transient faults = %v, want success after retries", err)
	}
	if len(merged.Failed) != 0 {
		t.Errorf("Failed = %v, want empty", merged.Failed)
	}
	if !slices.Equal(merged.Scanned, []string{"svc-a"}) {
		t.Errorf("Scanned = %v, want [svc-a]", merged.Scanned)
	}
	if len(merged.Reported) == 0 {
		t.Error("retried scan lost the regression")
	}
	if got := ft.Requests(mustHost(t, srv.URL)); got != 3 {
		t.Errorf("worker saw %d requests, want 3 (2 faulted + 1 real)", got)
	}
	// The backoff between attempts happened on the fake clock only.
	if got := clock.Slept(); got <= 0 {
		t.Error("no virtual backoff recorded; retries did not back off")
	}

	m := fetchMetrics(t, srv.URL)
	if got := metricValue(t, m, MetricCoordRetries); got != 2 {
		t.Errorf("%s = %v, want 2", MetricCoordRetries, got)
	}
	if got := metricValue(t, m, fmt.Sprintf(`%s{worker=%q}`, MetricBreakerFailures, srv.URL)); got != 2 {
		t.Errorf("breaker failures = %v, want 2", got)
	}
	// Two failures are under the default threshold: still closed.
	if got := metricValue(t, m, fmt.Sprintf(`%s{worker=%q}`, MetricBreakerState, srv.URL)); got != 0 {
		t.Errorf("breaker state = %v, want 0 (closed)", got)
	}
	if got := metricValue(t, m, MetricCoordFailures); got != 0 {
		t.Errorf("%s = %v, want 0", MetricCoordFailures, got)
	}
}

// TestScanFailsOverToHealthyPeer drops every request to the hash-owned
// primary: the retry budget is spent there, then the service lands on
// the replica peer and the failover counter says so.
func TestScanFailsOverToHealthyPeer(t *testing.T) {
	wa, end := buildWorker(t, "wa", "svc-f", 5, false)
	wb, _ := buildWorker(t, "wb", "svc-f", 6, false)
	srvA := httptest.NewServer(wa)
	defer srvA.Close()
	srvB := httptest.NewServer(wb)
	defer srvB.Close()

	urls := []string{srvA.URL, srvB.URL}
	names := map[string]string{srvA.URL: "wa", srvB.URL: "wb"}
	primary := urls[ownerIndex("svc-f", len(urls))]
	peer := urls[0]
	if peer == primary {
		peer = urls[1]
	}

	clock := resilience.NewFakeClock(t0).AutoAdvance()
	ft := resilience.NewFaultTransport(1, nil, nil).Rule(resilience.FaultRule{
		Host: mustHost(t, primary), Action: resilience.FaultAction{Drop: true},
	})
	coord, err := NewCoordinatorWithOptions(urls, &http.Client{Transport: ft}, Options{
		Retry: resilience.Policy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond,
			MaxDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
		Clock: clock, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)

	resp, err := coord.Scan("svc-f", end)
	if err != nil {
		t.Fatalf("Scan with dead primary = %v, want failover success", err)
	}
	if resp.Worker != names[peer] {
		t.Errorf("served by %q, want peer %q", resp.Worker, names[peer])
	}
	if got := ft.Requests(mustHost(t, primary)); got != 2 {
		t.Errorf("primary saw %d attempts, want 2 (retry budget)", got)
	}
	if got := ft.Requests(mustHost(t, peer)); got != 1 {
		t.Errorf("peer saw %d attempts, want 1", got)
	}
	if got := reg.NewCounter(MetricCoordFailovers, "", nil).Value(); got != 1 {
		t.Errorf("failovers = %v, want 1", got)
	}
	if got := reg.NewCounter(MetricCoordRetries, "", nil).Value(); got != 1 {
		t.Errorf("retries = %v, want 1", got)
	}
	if got := reg.NewCounter(MetricBreakerFailures, "", obs.Labels{"worker": primary}).Value(); got != 2 {
		t.Errorf("primary breaker failures = %v, want 2", got)
	}
}

// TestBreakerTripsSkipsAndReopens walks one worker's breaker through its
// whole life: trip after the failure threshold, skip while open, a
// half-open probe after cooldown, and re-open when the probe fails.
func TestBreakerTripsSkipsAndReopens(t *testing.T) {
	// The server is never reached: every request is dropped in transit.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	clock := resilience.NewFakeClock(t0) // manual: MaxAttempts 1 never sleeps
	ft := resilience.NewFaultTransport(1, nil, nil).Rule(resilience.FaultRule{
		Host: mustHost(t, srv.URL), Action: resilience.FaultAction{Drop: true},
	})
	coord, err := NewCoordinatorWithOptions([]string{srv.URL}, &http.Client{Transport: ft}, Options{
		Retry: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond,
			MaxDelay: time.Millisecond, Multiplier: 1, Jitter: 0},
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
		Clock:   clock, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)
	stateGauge := func() float64 {
		return reg.NewGauge(MetricBreakerState, "", obs.Labels{"worker": srv.URL}).Value()
	}
	transitions := func(to string) float64 {
		return reg.NewCounter(MetricBreakerTransitions, "", obs.Labels{"worker": srv.URL, "to": to}).Value()
	}

	// Two failures reach the threshold and trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := coord.Scan("svc", t0); err == nil {
			t.Fatalf("scan %d should fail: requests are dropped", i+1)
		}
	}
	if got := stateGauge(); got != 2 {
		t.Fatalf("breaker state = %v, want 2 (open)", got)
	}
	if got := transitions("open"); got != 1 {
		t.Errorf("open transitions = %v, want 1", got)
	}

	// While open the worker is not even attempted.
	before := ft.Requests(mustHost(t, srv.URL))
	_, err = coord.Scan("svc", t0)
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("open-breaker scan error = %v, want circuit open", err)
	}
	if got := ft.Requests(mustHost(t, srv.URL)); got != before {
		t.Errorf("open breaker still sent a request (%d -> %d)", before, got)
	}
	if got := reg.NewCounter(MetricCoordBreakerSkips, "", nil).Value(); got != 1 {
		t.Errorf("breaker skips = %v, want 1", got)
	}

	// After the cooldown a half-open probe goes out; its failure re-opens.
	clock.Advance(time.Minute)
	if _, err := coord.Scan("svc", t0); err == nil {
		t.Fatal("probe scan should fail: requests are still dropped")
	}
	if got := transitions("half_open"); got != 1 {
		t.Errorf("half_open transitions = %v, want 1", got)
	}
	if got := transitions("open"); got != 2 {
		t.Errorf("open transitions = %v, want 2 (tripped, then re-opened)", got)
	}
	if got := stateGauge(); got != 2 {
		t.Errorf("breaker state = %v, want 2 (open again)", got)
	}
	if got := reg.NewCounter(MetricBreakerFailures, "", obs.Labels{"worker": srv.URL}).Value(); got != 3 {
		t.Errorf("breaker failures = %v, want 3", got)
	}
}

// TestFailoverOrderBreakerOnly pins the failover order over a 3-worker
// ring: with every breaker closed it is the ring from the hash owner;
// a tripped worker moves to the back and the others keep ring order.
// "beta", "gamma" and "fleetsim" hash to 2³¹ or above, where a signed
// modulus on 32-bit platforms would pick another owner.
func TestFailoverOrderBreakerOnly(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	for _, tc := range []struct {
		service string
		tripped string // worker whose breaker is open ("" = none)
		want    []string
	}{
		{"alpha", "", []string{"http://c", "http://a", "http://b"}},
		{"beta", "", []string{"http://c", "http://a", "http://b"}},
		{"gamma", "", []string{"http://a", "http://b", "http://c"}},
		{"fleetsim", "", []string{"http://b", "http://c", "http://a"}},
		{"delta", "", []string{"http://b", "http://c", "http://a"}},
		{"beta", "http://c", []string{"http://a", "http://b", "http://c"}},
		{"gamma", "http://b", []string{"http://a", "http://c", "http://b"}},
		{"fleetsim", "http://a", []string{"http://b", "http://c", "http://a"}},
		{"delta", "http://c", []string{"http://b", "http://a", "http://c"}},
	} {
		coord, err := NewCoordinatorWithOptions(urls, nil, Options{
			Breaker: resilience.BreakerConfig{FailureThreshold: 1},
			Clock:   resilience.NewFakeClock(t0),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range coord.workers {
			if w.url == tc.tripped {
				w.breaker.Failure()
			}
		}
		var got []string
		for _, w := range coord.candidates(tc.service) {
			got = append(got, w.url)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("candidates(%q) with %q open = %v, want %v", tc.service, tc.tripped, got, tc.want)
		}
		if owner := coord.WorkerFor(tc.service); tc.tripped == "" && owner != tc.want[0] {
			t.Errorf("WorkerFor(%q) = %s, want %s", tc.service, owner, tc.want[0])
		}
	}
}

// TestScanHedgesSlowWorker hangs the first request: after HedgeDelay on
// the fake clock a duplicate goes out, wins, and cancels the hung
// original. No real time passes waiting on the slow request.
func TestScanHedgesSlowWorker(t *testing.T) {
	w, end := buildWorker(t, "w1", "svc-h", 8, false)
	srv := httptest.NewServer(w)
	defer srv.Close()

	clock := resilience.NewFakeClock(t0) // manual: only the hedge timer waits
	hung := make(chan struct{})
	ft := resilience.NewFaultTransport(1, nil, nil).Rule(resilience.FaultRule{
		Host: mustHost(t, srv.URL), Count: 1,
		Action:  resilience.FaultAction{Hang: true},
		OnApply: func(int) { close(hung) },
	})
	// The hedge goes out only once the original hangs, so the first
	// request through the transport is the hung one; hungReturned closes
	// when its round trip comes back canceled.
	var requests atomic.Int32
	hungReturned := make(chan struct{})
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		first := requests.Add(1) == 1
		resp, err := ft.RoundTrip(req)
		if first {
			close(hungReturned)
		}
		return resp, err
	})}
	coord, err := NewCoordinatorWithOptions([]string{srv.URL}, client, Options{
		Retry: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond,
			MaxDelay: time.Millisecond, Multiplier: 1, Jitter: 0},
		HedgeDelay: 200 * time.Millisecond,
		Clock:      clock, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)

	type result struct {
		resp *ScanResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := coord.Scan("svc-h", end)
		done <- result{resp, err}
	}()
	<-hung                                // the original request is hanging in transit
	clock.BlockUntil(1)                   // the hedge timer is armed
	clock.Advance(200 * time.Millisecond) // fire it

	res := <-done
	if res.err != nil {
		t.Fatalf("hedged scan = %v, want hedge win", res.err)
	}
	if res.resp.Worker != "w1" {
		t.Errorf("served by %q, want w1", res.resp.Worker)
	}
	if got := reg.NewCounter(MetricCoordHedges, "", nil).Value(); got != 1 {
		t.Errorf("hedges = %v, want 1", got)
	}
	if got := reg.NewCounter(MetricCoordHedgeWins, "", nil).Value(); got != 1 {
		t.Errorf("hedge wins = %v, want 1", got)
	}
	// The canceled loser is no verdict on the worker.
	<-hungReturned
	if got := reg.NewCounter(MetricBreakerFailures, "", obs.Labels{"worker": srv.URL}).Value(); got != 0 {
		t.Errorf("breaker failures after a hedge win = %v, want 0", got)
	}
}

// TestCanceledProbeFreesHalfOpenBreaker cancels the scan carrying a
// half-open breaker's single probe: the cancellation charges nothing,
// and the next scan is admitted as the probe and closes the breaker.
func TestCanceledProbeFreesHalfOpenBreaker(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"worker":"w1"}`))
	}))
	defer srv.Close()

	clock := resilience.NewFakeClock(t0) // manual: MaxAttempts 1 never sleeps
	hung := make(chan struct{})
	ft := resilience.NewFaultTransport(1, nil, nil).
		Rule(resilience.FaultRule{ // trips the breaker
			Host: mustHost(t, srv.URL), Count: 1, Action: resilience.FaultAction{Drop: true},
		}).
		Rule(resilience.FaultRule{ // holds the half-open probe until canceled
			Host: mustHost(t, srv.URL), Count: 1, Action: resilience.FaultAction{Hang: true},
			OnApply: func(int) { close(hung) },
		})
	coord, err := NewCoordinatorWithOptions([]string{srv.URL}, &http.Client{Transport: ft}, Options{
		Retry: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond,
			MaxDelay: time.Millisecond, Multiplier: 1, Jitter: 0},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
		Clock:   clock, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)
	failures := reg.NewCounter(MetricBreakerFailures, "", obs.Labels{"worker": srv.URL})

	if _, err := coord.Scan("svc", t0); err == nil {
		t.Fatal("first scan should fail: its request is dropped")
	}
	clock.Advance(time.Minute) // cooldown over: the next scan is the probe

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.ScanContext(ctx, "svc", t0)
		done <- err
	}()
	<-hung
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled probe scan reported success")
	}
	if got := failures.Value(); got != 1 {
		t.Errorf("breaker failures = %v, want 1 (the trip only)", got)
	}

	resp, err := coord.Scan("svc", t0)
	if err != nil {
		t.Fatalf("scan after a canceled probe = %v, want it admitted", err)
	}
	if resp.Worker != "w1" {
		t.Errorf("served by %q, want w1", resp.Worker)
	}
	if got := reg.NewGauge(MetricBreakerState, "", obs.Labels{"worker": srv.URL}).Value(); got != 0 {
		t.Errorf("breaker state = %v, want 0 (closed by the probe)", got)
	}
}

// TestScanAllSurvivesWorkerDeathMidSweep is the end-to-end failover
// drill: two replicas split six services; after the doomed worker
// serves one request it is killed (its server closed, its remaining
// traffic dropped) mid-sweep. The merged sweep must still cover every
// service, with the outage visible only in the resilience metrics.
func TestScanAllSurvivesWorkerDeathMidSweep(t *testing.T) {
	// Three services per worker, placed by the coordinator's own hash.
	var all []string
	var byWorker [2][]string
	for i := 0; len(byWorker[0]) < 3 || len(byWorker[1]) < 3; i++ {
		name := fmt.Sprintf("sweep-%d", i)
		b := ownerIndex(name, 2)
		if len(byWorker[b]) >= 3 {
			continue
		}
		byWorker[b] = append(byWorker[b], name)
		all = append(all, name)
	}
	wa, end := buildReplicatedWorker(t, "wa", all, 10)
	wb, _ := buildReplicatedWorker(t, "wb", all, 20)
	srvA := httptest.NewServer(wa)
	srvB := httptest.NewServer(wb)
	defer srvB.Close()
	var killOnce sync.Once
	kill := func() { killOnce.Do(srvA.Close) }
	defer kill()

	clock := resilience.NewFakeClock(t0).AutoAdvance()
	// Let one request through to worker A, then "kill" it: close its
	// server and drop everything still addressed to it.
	ft := resilience.NewFaultTransport(3, nil, nil).Rule(resilience.FaultRule{
		Host: mustHost(t, srvA.URL), Skip: 1,
		Action: resilience.FaultAction{Drop: true},
		OnApply: func(n int) {
			if n == 1 {
				go kill()
			}
		},
	})
	coord, err := NewCoordinatorWithOptions([]string{srvA.URL, srvB.URL}, &http.Client{Transport: ft}, Options{
		Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5},
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
		Clock:   clock, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)

	merged, err := coord.ScanAll(all, end)
	if err != nil {
		t.Fatalf("ScanAll with mid-sweep worker death = %v, want full coverage", err)
	}
	if len(merged.Failed) != 0 {
		t.Errorf("Failed = %v, want empty: peer should cover the dead worker", merged.Failed)
	}
	wantScanned := append([]string(nil), all...)
	sort.Strings(wantScanned)
	if !slices.Equal(merged.Scanned, wantScanned) {
		t.Errorf("Scanned = %v, want %v", merged.Scanned, wantScanned)
	}

	// The outage left its fingerprints in the metrics.
	if got := reg.NewCounter(MetricCoordFailovers, "", nil).Value(); got < 1 {
		t.Errorf("failovers = %v, want >= 1", got)
	}
	if got := reg.NewCounter(MetricBreakerFailures, "", obs.Labels{"worker": srvA.URL}).Value(); got < 2 {
		t.Errorf("dead worker breaker failures = %v, want >= 2", got)
	}
	if got := reg.NewCounter(MetricBreakerTransitions, "",
		obs.Labels{"worker": srvA.URL, "to": "open"}).Value(); got < 1 {
		t.Errorf("dead worker never tripped its breaker (transitions = %v)", got)
	}
	if got := reg.NewCounter(MetricCoordFailures, "", nil).Value(); got != 0 {
		t.Errorf("per-service failures = %v, want 0", got)
	}
}
