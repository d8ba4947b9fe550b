package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
	"fbdetect/internal/tsdb"
)

func TestStateRoundTripSuppressesReReports(t *testing.T) {
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 53)
	db := tsdb.New(time.Minute)
	var log changelog.Log
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     t0.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.25) },
		Record: &changelog.Change{ID: "D1", Subroutines: []string{"decode"}},
	})
	end := t0.Add(10 * time.Hour)
	if err := svc.Run(db, &log, t0, end); err != nil {
		t.Fatal(err)
	}

	cfg := pipelineConfig()
	// Scale-appropriate thresholds per metric, as Table 1 configures per
	// metric type; without these an absolute gCPU-scale threshold lets
	// any throughput noise through.
	cfg.MetricThresholds = map[string]float64{
		"throughput": 0.05, "latency": 0.05, "cpu": 0.05, "error_rate": 0.5,
	}
	cfg.MetricRelative = map[string]bool{
		"throughput": true, "latency": true, "cpu": true, "error_rate": true,
	}
	p1, err := NewPipeline(cfg, db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := p1.Scan("websvc", t0.Add(9*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Reported) == 0 {
		t.Fatal("nothing reported on first scan")
	}

	// Persist, then "restart" into a fresh pipeline.
	var buf bytes.Buffer
	if err := p1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPipeline(cfg, db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	// A later overlapping scan on the restored pipeline must not
	// re-report.
	res2, err := p2.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Reported) != 0 {
		t.Errorf("restored pipeline re-reported %d regressions", len(res2.Reported))
	}
	// Control: a fresh pipeline without the state does re-report.
	p3, err := NewPipeline(cfg, db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := p3.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Reported) == 0 {
		t.Error("control pipeline should report (state actually mattered)")
	}
	// Groups survived the round trip.
	if len(p2.Groups()) != len(p1.Groups()) {
		t.Errorf("groups: %d vs %d", len(p2.Groups()), len(p1.Groups()))
	}
}

func TestLoadStateErrors(t *testing.T) {
	db := tsdb.New(time.Minute)
	p, err := NewPipeline(testConfig(), db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadState(strings.NewReader("{")); err == nil {
		t.Error("truncated state accepted")
	}
	if err := p.LoadState(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	// Empty valid state loads cleanly.
	if err := p.LoadState(strings.NewReader(`{"version": 1}`)); err != nil {
		t.Errorf("minimal state rejected: %v", err)
	}
}
