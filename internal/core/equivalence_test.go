package core

import (
	"fmt"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
	"fbdetect/internal/tsdb"
)

// The scan hot path has two behavior-preserving optimizations: scratch
// QueryViewStamped reads and the detector-checkpoint cache. Each must be
// invisible in the detection output. These
// tests build the same seeded multi-service fleet twice, run monitors with
// the optimization toggled, and require byte-identical reports and funnels.

// equivalenceFixture deterministically seeds a three-service fleet (two
// with injected regressions) and wraps it in a pipeline with cfg. Calling
// it twice with the same config yields pipelines over identical data.
func equivalenceFixture(t *testing.T, cfg Config) (*Pipeline, []string, time.Time, time.Time) {
	t.Helper()
	db := tsdb.New(time.Minute)
	var log changelog.Log
	names := []string{"svc-a", "svc-b", "svc-c"}
	svcs := map[string]*fleet.Service{}
	start := t0
	end := start.Add(11 * time.Hour)
	for i, name := range names {
		svc, err := fleet.NewService(fleet.Config{
			Name:            name,
			Servers:         2000,
			Step:            time.Minute,
			SamplesPerStep:  100000,
			BaseCPU:         0.5,
			CPUNoise:        0.05,
			BaseThroughput:  1000,
			ThroughputNoise: 5,
			BaseLatency:     40,
			LatencyNoise:    0.5,
			Tree:            pipelineTree(t),
			Seed:            int64(31 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if name != "svc-b" { // two of three services regress
			svc.ScheduleChange(fleet.ScheduledChange{
				At:     start.Add(7 * time.Hour),
				Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.2) },
				Record: &changelog.Change{
					ID: "D-" + name, Title: "rewrite decode loop in " + name,
					Subroutines: []string{"decode"},
				},
			})
		}
		if err := svc.Run(db, &log, start, end); err != nil {
			t.Fatal(err)
		}
		svcs[name] = svc
	}
	p, err := NewPipeline(cfg, db, &log, fleet.SamplesByName(svcs, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	return p, names, start, end
}

// diffRegressions requires two report lists to match exactly, field by
// field — "byte-identical" detection output, without reflect.DeepEqual
// (Windows now carries unexported zero-copy state whose pointers differ).
func diffRegressions(got, want []*Regression) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d regressions, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		switch {
		case g.Metric != w.Metric, g.Service != w.Service, g.Entity != w.Entity, g.Name != w.Name:
			return fmt.Errorf("report %d identity %s != %s", i, g.Metric, w.Metric)
		case g.Path != w.Path:
			return fmt.Errorf("report %d (%s) path %v != %v", i, g.Metric, g.Path, w.Path)
		case g.ChangePoint != w.ChangePoint, !g.ChangePointTime.Equal(w.ChangePointTime):
			return fmt.Errorf("report %d (%s) change point %d@%v != %d@%v",
				i, g.Metric, g.ChangePoint, g.ChangePointTime, w.ChangePoint, w.ChangePointTime)
		case g.Before != w.Before, g.After != w.After, g.Delta != w.Delta, g.Relative != w.Relative:
			return fmt.Errorf("report %d (%s) magnitudes %v/%v/%v != %v/%v/%v",
				i, g.Metric, g.Before, g.After, g.Delta, w.Before, w.After, w.Delta)
		case g.PValue != w.PValue:
			return fmt.Errorf("report %d (%s) p %v != %v", i, g.Metric, g.PValue, w.PValue)
		case g.Group != w.Group:
			return fmt.Errorf("report %d (%s) group %d != %d", i, g.Metric, g.Group, w.Group)
		case len(g.RootCauses) != len(w.RootCauses):
			return fmt.Errorf("report %d (%s) %d root causes != %d",
				i, g.Metric, len(g.RootCauses), len(w.RootCauses))
		}
		for j := range w.RootCauses {
			if g.RootCauses[j].ChangeID != w.RootCauses[j].ChangeID ||
				g.RootCauses[j].Score != w.RootCauses[j].Score {
				return fmt.Errorf("report %d (%s) root cause %d: %+v != %+v",
					i, g.Metric, j, g.RootCauses[j], w.RootCauses[j])
			}
		}
	}
	return nil
}

// runSweeps drives a monitor over every scan cycle the data supports,
// plus one repeated scan of the final cycle — the repeat re-reads
// unchanged series, which is what exercises decomposition-cache hits.
func runSweeps(t *testing.T, p *Pipeline, services []string, start, end time.Time) *Monitor {
	t.Helper()
	m, err := NewMonitor(p, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range services {
		m.Watch(s)
	}
	first := start.Add(p.cfg.Windows.Total())
	if err := m.RunVirtual(first, end); err != nil {
		t.Fatal(err)
	}
	if err := m.ScanOnce(end); err != nil { // repeat: series unchanged
		t.Fatal(err)
	}
	return m
}

func compareMonitors(t *testing.T, got, want *Monitor, label string) {
	t.Helper()
	if err := diffRegressions(got.Reports(), want.Reports()); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	gf, gs := got.Stats()
	wf, ws := want.Stats()
	if gf != wf || gs != ws {
		t.Errorf("%s: funnel/scans %+v/%d != %+v/%d", label, gf, gs, wf, ws)
	}
}

func TestScanEquivalenceCachedVsUncached(t *testing.T) {
	base := pipelineConfig()

	uncachedCfg := base
	uncachedCfg.CheckpointCacheSize = -1 // disabled: every scan redetects
	pu, services, start, end := equivalenceFixture(t, uncachedCfg)
	mu := runSweeps(t, pu, services, start, end)

	cachedCfg := base // default cache size
	pc, _, _, _ := equivalenceFixture(t, cachedCfg)
	mc := runSweeps(t, pc, services, start, end)

	compareMonitors(t, mc, mu, "cached vs uncached")

	if hits, _, _ := pu.CheckpointStats(); hits != 0 {
		t.Errorf("disabled checkpoint cache recorded %d hits", hits)
	}
	// The repeated final scan re-reads unchanged series; the checkpoint
	// layer must serve it without re-detection.
	cpHits, cpMisses, _ := pc.CheckpointStats()
	if cpHits == 0 {
		t.Errorf("checkpoints never hit (misses=%d): repeated scan of unchanged series should hit", cpMisses)
	}
}

// TestScanEquivalenceCheckpointsOnly pins the checkpoint layer against
// the fully cold path, with appends interleaved between sweeps so warm
// scans mix hits (unchanged series) and misses (appended series).
func TestScanEquivalenceCheckpointsOnly(t *testing.T) {
	base := pipelineConfig()

	coldCfg := base
	coldCfg.CheckpointCacheSize = -1
	pcold, services, start, end := equivalenceFixture(t, coldCfg)

	warmCfg := base
	pwarm, _, _, _ := equivalenceFixture(t, warmCfg)

	mcold := runSweeps(t, pcold, services, start, end)
	mwarm := runSweeps(t, pwarm, services, start, end)
	compareMonitors(t, mwarm, mcold, "checkpointed vs cold")

	if hits, _, _ := pwarm.CheckpointStats(); hits == 0 {
		t.Error("checkpoint layer never hit")
	}
}

func TestQueryViewScanMatchesQueryScan(t *testing.T) {
	// The pipeline reads through QueryViewStamped; re-reading every
	// scanned window through the copying Query must yield identical
	// series. This pins the view read path to the copying one on live
	// fleet data.
	cfg := pipelineConfig()
	p, services, _, end := equivalenceFixture(t, cfg)
	from := end.Add(-cfg.Windows.Total())
	checked := 0
	for _, svc := range services {
		for _, id := range p.db.Metrics(svc) {
			view, _, err := p.db.QueryViewStamped(id, from, end, nil)
			if err != nil {
				t.Fatal(err)
			}
			copied, err := p.db.Query(id, from, end)
			if err != nil {
				t.Fatal(err)
			}
			if view.Len() != copied.Len() || !view.Start.Equal(copied.Start) {
				t.Fatalf("%s: view %d@%v != query %d@%v",
					id, view.Len(), view.Start, copied.Len(), copied.Start)
			}
			for i := range copied.Values {
				if view.Values[i] != copied.Values[i] {
					t.Fatalf("%s[%d]: view %v != query %v", id, i, view.Values[i], copied.Values[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no metrics compared")
	}
}
