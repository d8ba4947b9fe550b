package distributed

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

var t0 = time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)

// buildWorker simulates one service with an injected regression and wraps
// its pipeline in a Worker.
func buildWorker(t *testing.T, name, service string, seed int64, inject bool) (*Worker, time.Time) {
	t.Helper()
	root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "work", SelfWeight: 30},
		{Name: "other", SelfWeight: 69},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fleet.NewService(fleet.Config{
		Name: service, Servers: 5000, Step: time.Minute,
		SamplesPerStep: 2e5, BaseCPU: 0.5, CPUNoise: 0.05,
		BaseThroughput: 1000, Tree: tree, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log changelog.Log
	if inject {
		svc.ScheduleChange(fleet.ScheduledChange{
			At:     t0.Add(7 * time.Hour),
			Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("work", 1.2) },
			Record: &changelog.Change{ID: "D-" + service, Subroutines: []string{"work"}},
		})
	}
	db := tsdb.New(time.Minute)
	end := t0.Add(9 * time.Hour)
	if err := svc.Run(db, &log, t0, end); err != nil {
		t.Fatal(err)
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

func TestWorkerScanOverHTTP(t *testing.T) {
	w, end := buildWorker(t, "w1", "svc-a", 1, true)
	srv := httptest.NewServer(w)
	defer srv.Close()

	coord, err := NewCoordinator([]string{srv.URL}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Scan("svc-a", end)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Worker != "w1" {
		t.Errorf("worker = %q", resp.Worker)
	}
	if len(resp.Reported) == 0 {
		t.Fatalf("regression not reported over the wire; funnel %+v", resp.Funnel)
	}
	found := false
	for _, r := range resp.Reported {
		if r.Entity == "work" || r.Entity == "main" {
			found = true
			if r.Delta <= 0 || r.Path == "" {
				t.Errorf("wire regression incomplete: %+v", r)
			}
		}
	}
	if !found {
		t.Errorf("work regression missing: %+v", resp.Reported)
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	w, _ := buildWorker(t, "w1", "svc-a", 2, false)
	srv := httptest.NewServer(w)
	defer srv.Close()

	// GET not allowed.
	resp, err := http.Get(srv.URL + "/scan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err = http.Post(srv.URL+"/scan", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	// Missing fields.
	resp, err = http.Post(srv.URL+"/scan", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing fields status = %d", resp.StatusCode)
	}
}

func TestCoordinatorShardsAndMerges(t *testing.T) {
	wa, end := buildWorker(t, "wa", "svc-a", 3, true)
	wb, _ := buildWorker(t, "wb", "svc-b", 4, false)
	// Each worker serves both endpoints but holds only its own service's
	// data, as a sharded deployment would.
	srvA := httptest.NewServer(wa)
	defer srvA.Close()
	srvB := httptest.NewServer(wb)
	defer srvB.Close()

	// Route each service to the worker that actually has its data.
	newCoord := func(urls ...string) *Coordinator {
		c, err := NewCoordinator(urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coord := newCoord(srvA.URL, srvB.URL)
	// WorkerFor is hash-based; find which URL svc-a hashes to, and build
	// the worker list so the hash routes correctly.
	if coord.WorkerFor("svc-a") != srvA.URL {
		// Rebuild workers so svc-a lands on srvA and svc-b on the other.
		coord = newCoord(srvB.URL, srvA.URL)
		if coord.WorkerFor("svc-a") != srvA.URL {
			t.Skip("hash routes both services to one worker in this configuration")
		}
	}
	if coord.WorkerFor("svc-b") == srvA.URL {
		// svc-b must go to wb for the data to exist; if the hash disagrees
		// the deployment would co-locate them — emulate by skipping.
		t.Skip("hash co-locates services; routing exercised in TestWorkerScanOverHTTP")
	}

	merged, err := coord.ScanAll([]string{"svc-a", "svc-b"}, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Reported) == 0 {
		t.Error("merged sweep lost the regression")
	}
	for _, r := range merged.Reported {
		if r.Service == "svc-b" {
			t.Errorf("clean service reported: %+v", r)
		}
	}
	if merged.Funnel.ChangePoints == 0 {
		t.Error("funnel not merged")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(nil, nil); err == nil {
		t.Error("empty worker list accepted")
	}
}

func TestCoordinatorStableAssignment(t *testing.T) {
	coord, err := NewCoordinator([]string{"http://a", "http://b", "http://c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "beta" and "gamma" hash to 2³¹ or above.
	for _, svc := range []string{"frontfaas", "beta", "gamma"} {
		first := coord.WorkerFor(svc)
		for i := 0; i < 10; i++ {
			if coord.WorkerFor(svc) != first {
				t.Fatalf("assignment of %q not stable", svc)
			}
		}
	}
}

func TestCoordinatorWorkerDown(t *testing.T) {
	coord, err := NewCoordinator([]string{"http://127.0.0.1:1"}, &http.Client{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Scan("svc", t0); err == nil {
		t.Error("dead worker should error")
	}
	merged, err := coord.ScanAll([]string{"svc"}, t0)
	if err == nil {
		t.Error("ScanAll should surface the error")
	}
	if len(merged.Reported) != 0 {
		t.Error("dead worker produced reports")
	}
}
