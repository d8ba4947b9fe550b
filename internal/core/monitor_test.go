package core

import (
	"context"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
	"fbdetect/internal/tsdb"
)

func monitorFixture(t *testing.T) (*Pipeline, *fleet.Service, time.Time, time.Time) {
	t.Helper()
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 23)
	db := tsdb.New(time.Minute)
	var log changelog.Log
	start := t0
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     start.Add(10 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.25) },
		Record: &changelog.Change{ID: "D-mon", Title: "decode change", Subroutines: []string{"decode"}},
	})
	end := start.Add(13 * time.Hour)
	if err := svc.Run(db, &log, start, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	return p, svc, start, end
}

func TestMonitorVirtualRun(t *testing.T) {
	p, _, start, end := monitorFixture(t)
	m, err := NewMonitor(p, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	m.Watch("websvc")
	m.Watch("websvc") // duplicate registration is idempotent

	var callbacks int
	m.OnReport(func(r *Regression) { callbacks++ })

	// Scans start once enough history exists.
	first := start.Add(p.cfg.Windows.Total())
	if err := m.RunVirtual(first, end); err != nil {
		t.Fatal(err)
	}
	reports := m.Reports()
	if len(reports) == 0 {
		t.Fatal("monitor reported nothing")
	}
	if callbacks != len(reports) {
		t.Errorf("callbacks %d != reports %d", callbacks, len(reports))
	}
	// The regression is reported exactly once across overlapping scans.
	decodeReports := 0
	for _, r := range reports {
		if r.Entity == "decode" || r.Entity == "fetch" || r.Entity == "main" {
			decodeReports++
		}
	}
	if decodeReports == 0 {
		t.Error("injected regression never reported")
	}
	if decodeReports > 2 {
		t.Errorf("regression over-reported %d times", decodeReports)
	}
	funnel, scans := m.Stats()
	if scans == 0 || funnel.ChangePoints == 0 {
		t.Errorf("stats empty: %+v, %d", funnel, scans)
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil, time.Hour); err == nil {
		t.Error("nil pipeline accepted")
	}
	p, _, _, _ := monitorFixture(t)
	m, err := NewMonitor(p, 0) // falls back to config/1h default
	if err != nil {
		t.Fatal(err)
	}
	if m.interval != time.Hour {
		t.Errorf("interval = %v", m.interval)
	}
}

func TestMonitorRealTimeCancel(t *testing.T) {
	p, _, _, _ := monitorFixture(t)
	m, err := NewMonitor(p, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m.Watch("websvc")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	// Real-time scans use time.Now, far past the simulated data, so the
	// scans find nothing — the point is clean startup and cancellation.
	if err := m.Run(ctx); err != context.DeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	_, scans := m.Stats()
	if scans < 1 {
		t.Error("no scans performed before cancel")
	}
}
