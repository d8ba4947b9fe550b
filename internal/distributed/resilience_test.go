package distributed

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
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

// ownerIndex mirrors Coordinator.owner's hash so tests can place
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

// TestNotFoundMovesToPeer is the coordinator's 404 case on a healthy
// fleet: each of two workers holds only some services, so a worker
// that lacks a service answers 404 and the scan moves to its peer. w1
// holds one of the services it owns and w0 the other 15; serial scans
// reach w1's own service last, after seven w1-owned services w0 served.
// A 404 says "not here", not "sick", so every service is scanned by the
// worker that holds it.
func TestNotFoundMovesToPeer(t *testing.T) {
	var byOwner [2][]string
	for i := 0; len(byOwner[0]) < 8 || len(byOwner[1]) < 8; i++ {
		name := fmt.Sprintf("held-%d", i)
		if o := ownerIndex(name, 2); len(byOwner[o]) < 8 {
			byOwner[o] = append(byOwner[o], name)
		}
	}
	last := byOwner[1][7] // the one service w1 holds
	onW0 := append(append([]string(nil), byOwner[0]...), byOwner[1][:7]...)
	w0, end := buildReplicatedWorker(t, "w0", onW0, 30)
	w1, _ := buildReplicatedWorker(t, "w1", []string{last}, 40)
	srv0 := httptest.NewServer(w0)
	defer srv0.Close()
	srv1 := httptest.NewServer(w1)
	defer srv1.Close()

	coord, err := NewCoordinator([]string{srv0.URL, srv1.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range append(onW0, last) {
		resp, err := coord.ScanContext(context.Background(), svc, end)
		if err != nil {
			t.Fatalf("scan of %s = %v, want it served by the worker that holds it", svc, err)
		}
		want := "w0"
		if svc == last {
			want = "w1"
		}
		if resp.Worker != want {
			t.Errorf("%s served by %q, want %q", svc, resp.Worker, want)
		}
	}
}

// TestScanFailsOverToHealthyPeer drops every request to the hash-owned
// primary: the scan asks it once, then lands on the replica peer.
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

	ft := resilience.NewFaultTransport(1, nil, nil).Rule(resilience.FaultRule{
		Host: mustHost(t, primary), Action: resilience.FaultAction{Drop: true},
	})
	coord, err := NewCoordinator(urls, &http.Client{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := coord.ScanContext(context.Background(), "svc-f", end)
	if err != nil {
		t.Fatalf("Scan with dead primary = %v, want failover success", err)
	}
	if resp.Worker != names[peer] {
		t.Errorf("served by %q, want peer %q", resp.Worker, names[peer])
	}
	for _, u := range urls {
		if got := ft.Requests(mustHost(t, u)); got != 1 {
			t.Errorf("%s saw %d requests, want 1", names[u], got)
		}
	}
}

// TestScanWalksRingOnce pins the order a scan asks a 3-worker ring in —
// the ring from the hash owner — and that a service every worker fails
// asks each worker once (no retries), naming each in the error.
// "beta", "gamma" and "fleetsim" hash to 2³¹ or above, where a signed
// modulus on 32-bit platforms would pick another owner.
func TestScanWalksRingOnce(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	for _, tc := range []struct {
		service string
		want    []string
	}{
		{"alpha", []string{"c", "a", "b"}},
		{"beta", []string{"c", "a", "b"}},
		{"gamma", []string{"a", "b", "c"}},
		{"fleetsim", []string{"b", "c", "a"}},
		{"delta", []string{"b", "c", "a"}},
	} {
		var asked []string
		ft := resilience.NewFaultTransport(1, nil, nil)
		for _, u := range urls {
			host := mustHost(t, u)
			ft.Rule(resilience.FaultRule{
				Host:    host,
				Action:  resilience.FaultAction{Status: http.StatusServiceUnavailable},
				OnApply: func(int) { asked = append(asked, host) },
			})
		}
		coord, err := NewCoordinator(urls, &http.Client{Transport: ft})
		if err != nil {
			t.Fatal(err)
		}
		_, err = coord.ScanContext(context.Background(), tc.service, t0)
		if err == nil {
			t.Fatalf("scan of %q succeeded; every worker answers 503", tc.service)
		}
		if !slices.Equal(asked, tc.want) {
			t.Errorf("%q asked %v, want %v", tc.service, asked, tc.want)
		}
		for _, u := range urls {
			if got := ft.Requests(mustHost(t, u)); got != 1 {
				t.Errorf("%q: %s saw %d requests, want 1", tc.service, u, got)
			}
			if !strings.Contains(err.Error(), "worker "+u+":") {
				t.Errorf("%q: error does not name %s: %v", tc.service, u, err)
			}
		}
		if owner := ownerURL(coord, tc.service); owner != "http://"+tc.want[0] {
			t.Errorf("owner of %q = %s, want http://%s", tc.service, owner, tc.want[0])
		}
	}
}

// TestCanceledScanAsksNoFurtherWorker cancels a scan while its owner
// holds the request: the scan returns the cancellation and never asks
// the peer.
func TestCanceledScanAsksNoFurtherWorker(t *testing.T) {
	urls := []string{"http://a", "http://b"}
	owner := urls[ownerIndex("svc", 2)]
	peer := urls[1-ownerIndex("svc", 2)]
	hung := make(chan struct{})
	ft := resilience.NewFaultTransport(1, nil, nil).Rule(resilience.FaultRule{
		Host: mustHost(t, owner), Action: resilience.FaultAction{Hang: true},
		OnApply: func(int) { close(hung) },
	})
	coord, err := NewCoordinator(urls, &http.Client{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.ScanContext(ctx, "svc", t0)
		done <- err
	}()
	<-hung
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled scan = %v, want context.Canceled", err)
	}
	if got := ft.Requests(mustHost(t, peer)); got != 0 {
		t.Errorf("peer saw %d requests after the cancel, want 0", got)
	}
}

// TestScanAllSurvivesWorkerDeathMidSweep is the end-to-end failover
// drill: two replicas split six services; after the doomed worker
// serves one request it is killed (its server closed, its remaining
// traffic dropped) mid-sweep. The merged sweep must still cover every
// service.
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
	coord, err := NewCoordinator([]string{srvA.URL, srvB.URL}, &http.Client{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}

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
}
