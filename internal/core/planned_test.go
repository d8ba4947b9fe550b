package core

import (
	"testing"
	"time"

	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

func TestPlannedChangeCovers(t *testing.T) {
	p := &PlannedChange{
		ID: "PC1", Service: "svc",
		Start: t0, End: t0.Add(2 * time.Hour),
		Metrics: []string{"throughput"},
	}
	r := NewRegressionRecord(tsdb.ID("svc", "", "throughput"))
	r.ChangePointTime = t0.Add(time.Hour)
	var reg PlannedChangeRegistry
	reg.Add(p)
	if reg.Explains(r) == nil {
		t.Error("covered regression not explained")
	}
	// Wrong metric.
	r2 := NewRegressionRecord(tsdb.ID("svc", "", "cpu"))
	r2.ChangePointTime = t0.Add(time.Hour)
	if reg.Explains(r2) != nil {
		t.Error("wrong metric explained")
	}
	// Outside the window.
	r3 := NewRegressionRecord(tsdb.ID("svc", "", "throughput"))
	r3.ChangePointTime = t0.Add(3 * time.Hour)
	if reg.Explains(r3) != nil {
		t.Error("out-of-window regression explained")
	}
	// Wrong service.
	r4 := NewRegressionRecord(tsdb.ID("other", "", "throughput"))
	r4.ChangePointTime = t0.Add(time.Hour)
	if reg.Explains(r4) != nil {
		t.Error("wrong service explained")
	}
	// Wildcard service and metrics.
	var wide PlannedChangeRegistry
	wide.Add(&PlannedChange{ID: "PC2", Start: t0, End: t0.Add(2 * time.Hour)})
	if wide.Explains(r2) == nil {
		t.Error("wildcard planned change should explain any metric/service")
	}
	if wide.Len() != 1 {
		t.Errorf("Len = %d", wide.Len())
	}
	var nilReg *PlannedChangeRegistry
	if nilReg.Explains(r) != nil {
		t.Error("nil registry should explain nothing")
	}
}

func TestPipelinePlannedChangeSuppression(t *testing.T) {
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 29)
	db := tsdb.New(time.Minute)
	start := t0
	changeAt := start.Add(7 * time.Hour)
	// A real cost increase — but it was a planned feature launch.
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     changeAt,
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.3) },
	})
	end := start.Add(9 * time.Hour)
	if err := svc.Run(db, nil, start, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, nil, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	var reg PlannedChangeRegistry
	reg.Add(&PlannedChange{
		ID: "launch-42", Service: "websvc",
		Start: changeAt.Add(-30 * time.Minute), End: changeAt.Add(time.Hour),
		Reason: "feature launch, +cost accepted",
	})
	p.SetPlannedChanges(&reg)
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reported) != 0 {
		t.Errorf("planned change still reported: %v", res.Reported)
	}
	if res.Funnel.ChangePoints == 0 {
		t.Error("change points should still be detected upstream")
	}
	// Without the registry, the same scan reports it (fresh pipeline,
	// fresh merger state).
	p2, err := NewPipeline(pipelineConfig(), db, nil, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Reported) == 0 {
		t.Error("control pipeline should report the regression")
	}
}

func TestPipelineEndpointCostShiftIntegration(t *testing.T) {
	// Endpoint series only: a handler split is filtered by the pipeline's
	// endpoint-prefix cost-shift stage.
	tree := pipelineTree(t)
	cfg := fleet.Config{
		Name: "web", Servers: 1000, Step: time.Minute,
		BaseCPU: 0.5, BaseThroughput: 100, Tree: tree, Seed: 31,
	}
	svc, err := fleet.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changeAt := t0.Add(7 * time.Hour)
	svc.ScheduleChange(fleet.ScheduledChange{
		At: changeAt,
		Effect: func(tr *fleet.Tree) error {
			return tr.ShiftWeight("Layout::measure", "Layout::paint", 6)
		},
	})
	endpoints := []fleet.EndpointSpec{
		{Name: "/render/measure", Subroutines: []string{"Layout::measure"}, CostNoise: 0.01},
		{Name: "/render/paint", Subroutines: []string{"Layout::paint"}, CostNoise: 0.01},
	}
	db := tsdb.New(time.Minute)
	end := t0.Add(9 * time.Hour)
	if err := svc.EmitEndpoints(db, endpoints, t0, end); err != nil {
		t.Fatal(err)
	}
	pcfg := Config{
		Threshold:         0.05,
		RelativeThreshold: true,
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	p, err := NewPipeline(pcfg, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan("web", end)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Reported {
		if r.Entity == "endpoint:/render/paint" {
			t.Errorf("endpoint cost shift reported by pipeline: %v", r)
		}
	}
	if res.Funnel.ChangePoints == 0 {
		t.Error("the shifted endpoint should produce a change point upstream")
	}
}
