package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// pipelineTree builds a service tree with a distinctive subroutine mix.
func pipelineTree(t testing.TB) *fleet.Tree {
	t.Helper()
	root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "render", SelfWeight: 10, Children: []*fleet.Node{
			{Name: "Layout::measure", Class: "Layout", SelfWeight: 8},
			{Name: "Layout::paint", Class: "Layout", SelfWeight: 12},
		}},
		{Name: "fetch", SelfWeight: 25, Children: []*fleet.Node{
			{Name: "decode", SelfWeight: 14},
		}},
		{Name: "misc", SelfWeight: 30},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func pipelineService(t testing.TB, tree *fleet.Tree, seed int64) *fleet.Service {
	t.Helper()
	svc, err := fleet.NewService(fleet.Config{
		Name:            "websvc",
		Servers:         5000,
		Step:            time.Minute,
		SamplesPerStep:  200000,
		BaseCPU:         0.5,
		CPUNoise:        0.05,
		BaseThroughput:  1000,
		ThroughputNoise: 5,
		BaseLatency:     40,
		LatencyNoise:    0.5,
		Tree:            tree,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func pipelineConfig() Config {
	return Config{
		Name:      "test",
		Threshold: 0.0005, // 0.05% absolute gCPU
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
		LongTerm: true,
	}
}

func TestPipelineCatchesInjectedRegression(t *testing.T) {
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 11)
	db := tsdb.New(time.Minute)
	var log changelog.Log

	start := t0
	changeAt := start.Add(7 * time.Hour) // inside the analysis window at scan
	svc.ScheduleChange(fleet.ScheduledChange{
		At: changeAt,
		// +20% self time on decode: gCPU(decode) 0.14 -> ~0.166.
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.2) },
		Record: &changelog.Change{
			ID: "D100", Title: "rewrite decode loop",
			Subroutines: []string{"decode"},
		},
	})
	// Decoy change far from the regression.
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     start.Add(2 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return nil },
		Record: &changelog.Change{ID: "D-decoy", Title: "noop tweak",
			Subroutines: []string{"misc"}},
	})
	end := start.Add(9 * time.Hour)
	if err := svc.Run(db, &log, start, end); err != nil {
		t.Fatal(err)
	}

	p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.ChangePoints == 0 {
		t.Fatal("no change points detected at all")
	}
	if len(res.Reported) == 0 {
		t.Fatalf("regression not reported; funnel %+v", res.Funnel)
	}
	// The reported regressions must include the decode lineage (decode or
	// its ancestors fetch/main, which SOMDedup may pick as representative).
	found := false
	for _, r := range res.Reported {
		switch r.Entity {
		case "decode", "fetch", "main":
			found = true
		}
	}
	if !found {
		for _, r := range res.Reported {
			t.Logf("reported: %v", r)
		}
		t.Fatal("decode regression lineage not among reports")
	}
	// Root cause should point at D100 for at least one reported regression.
	rcFound := false
	for _, r := range res.Reported {
		for _, rc := range r.RootCauses {
			if rc.ChangeID == "D100" {
				rcFound = true
			}
		}
	}
	if !rcFound {
		t.Error("true root cause D100 not suggested")
	}
	// The funnel must be monotonically non-increasing.
	f := res.Funnel
	if f.AfterWentAway > f.ChangePoints || f.AfterSeasonality > f.AfterWentAway ||
		f.AfterSOMDedup > f.AfterSameMerger || f.AfterCostShift > f.AfterSOMDedup ||
		f.AfterPairwise > f.AfterCostShift {
		t.Errorf("funnel not monotone: %+v", f)
	}
}

func TestPipelineFiltersTransientIssue(t *testing.T) {
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 13)
	db := tsdb.New(time.Minute)

	start := t0
	// A 40-minute load spike in the middle of the analysis window,
	// recovered well before the scan.
	svc.ScheduleIssue(fleet.DefaultIssue(fleet.LoadSpike, start.Add(6*time.Hour), 40*time.Minute))
	end := start.Add(9 * time.Hour)
	if err := svc.Run(db, nil, start, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, nil, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Reported {
		t.Errorf("transient issue reported as regression: %v", r)
	}
	if res.Funnel.ChangePoints > 0 && res.Funnel.AfterWentAway == res.Funnel.ChangePoints {
		t.Logf("funnel: %+v", res.Funnel)
	}
}

func TestPipelineFiltersCostShift(t *testing.T) {
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 17)
	db := tsdb.New(time.Minute)
	var log changelog.Log

	start := t0
	svc.ScheduleChange(fleet.ScheduledChange{
		At: start.Add(7 * time.Hour),
		// Pure refactoring: move cost from Layout::measure to
		// Layout::paint. Layout::paint regresses but the class total is
		// unchanged (Figure 1(b)).
		Effect: func(tr *fleet.Tree) error {
			return tr.ShiftWeight("Layout::measure", "Layout::paint", 6)
		},
		Record: &changelog.Change{ID: "D-refactor", Title: "move measurement into paint",
			Subroutines: []string{"Layout::measure", "Layout::paint"}},
	})
	end := start.Add(9 * time.Hour)
	if err := svc.Run(db, &log, start, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Reported {
		if r.Entity == "Layout::paint" {
			t.Errorf("cost shift reported as regression: %v", r)
		}
	}
}

func TestPipelineSecondScanDeduplicates(t *testing.T) {
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 19)
	db := tsdb.New(time.Minute)
	var log changelog.Log

	start := t0
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     start.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.2) },
		Record: &changelog.Change{ID: "D1", Title: "decode change", Subroutines: []string{"decode"}},
	})
	end := start.Add(10 * time.Hour)
	if err := svc.Run(db, &log, start, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := p.Scan("websvc", start.Add(9*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Second scan one hour later sees the same regression in its
	// (overlapping) analysis window.
	res2, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Reported) == 0 {
		t.Fatal("first scan reported nothing")
	}
	if len(res2.Reported) != 0 {
		t.Errorf("second scan re-reported %d regressions; SameRegressionMerger failed", len(res2.Reported))
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Config{}, nil, nil, nil); err == nil {
		t.Error("nil db should fail")
	}
	db := tsdb.New(time.Minute)
	if _, err := NewPipeline(Config{}, db, nil, nil); err == nil {
		t.Error("invalid windows should fail")
	}
}

func TestFunnelRatios(t *testing.T) {
	f := Funnel{ChangePoints: 1000, LongTermChangePoints: 3, AfterWentAway: 10,
		AfterSeasonality: 8, AfterThreshold: 5, AfterSameMerger: 4, AfterSOMDedup: 2,
		AfterPopShift: 2, AfterCostShift: 2, AfterPairwise: 1}
	var g Funnel
	g.Add(f)
	if g != f {
		t.Errorf("Add to an empty funnel = %+v, want %+v: the stage table misses a field", g, f)
	}
	g.Add(f)
	if g.ChangePoints != 2000 || g.AfterPairwise != 2 {
		t.Errorf("Add failed: %+v", g)
	}
}

func TestScanConcurrencyDeterministic(t *testing.T) {
	// The same database scanned with 1 worker and many workers must yield
	// identical funnels and reports.
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 37)
	db := tsdb.New(time.Minute)
	var log changelog.Log
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     t0.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.2) },
		Record: &changelog.Change{ID: "D1", Subroutines: []string{"decode"}},
	})
	end := t0.Add(9 * time.Hour)
	if err := svc.Run(db, &log, t0, end); err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *ScanResult {
		p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
		if err != nil {
			t.Fatal(err)
		}
		p.scanWorkers = workers
		res, err := p.Scan("websvc", end)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(16)
	if serial.Funnel != parallel.Funnel {
		t.Errorf("funnels differ:\n serial  %+v\n parallel %+v", serial.Funnel, parallel.Funnel)
	}
	if len(serial.Reported) != len(parallel.Reported) {
		t.Fatalf("report counts differ: %d vs %d", len(serial.Reported), len(parallel.Reported))
	}
	for i := range serial.Reported {
		if serial.Reported[i].Metric != parallel.Reported[i].Metric {
			t.Errorf("report %d differs: %s vs %s", i,
				serial.Reported[i].Metric, parallel.Reported[i].Metric)
		}
	}
}

func TestScanContextCanceled(t *testing.T) {
	// A canceled context stops the scan instead of producing results: the
	// distributed worker relies on this to abandon work whose caller has
	// given up.
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 23)
	db := tsdb.New(time.Minute)
	var log changelog.Log
	end := t0.Add(9 * time.Hour)
	if err := svc.Run(db, &log, t0, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.ScanContext(ctx, "websvc", end)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled scan = (%v, %v), want context.Canceled", res, err)
	}
	// The same pipeline still scans fine with a live context.
	if _, err := p.ScanContext(context.Background(), "websvc", end); err != nil {
		t.Fatalf("live-context scan after cancellation = %v", err)
	}
}

// TestCancelledFinalizeKeepsRegressionsReportable: a finalize cancelled
// after its detect finished stops before the SameRegressionMerger records
// anything, so retrying the scan reports what a fresh pipeline reports
// instead of calling every candidate a duplicate.
func TestCancelledFinalizeKeepsRegressionsReportable(t *testing.T) {
	fresh, end := instrumentedFixture(t, nil, nil)
	want, err := fresh.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Reported) == 0 {
		t.Fatalf("fixture lost its regression; funnel %+v", want.Funnel)
	}

	p, _ := instrumentedFixture(t, nil, nil)
	d, err := p.detectService(context.Background(), "websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := p.finalizeService(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled finalize = (%v, %v), want context.Canceled", res, err)
	}
	got, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if got.Funnel != want.Funnel {
		t.Errorf("retried scan funnel %+v, fresh pipeline %+v", got.Funnel, want.Funnel)
	}
	if len(got.Reported) != len(want.Reported) {
		t.Fatalf("retried scan reported %d, fresh pipeline %d", len(got.Reported), len(want.Reported))
	}
	for i, r := range got.Reported {
		if w := want.Reported[i]; r.Metric != w.Metric || !r.ChangePointTime.Equal(w.ChangePointTime) {
			t.Errorf("report %d: %s at %v, fresh pipeline %s at %v", i, r.Metric, r.ChangePointTime, w.Metric, w.ChangePointTime)
		}
	}
}
