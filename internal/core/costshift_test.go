package core

import (
	"testing"
	"time"

	"fbdetect/internal/fleet"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// costShiftRegression builds a gCPU regression record for subroutine sub
// with the given before/after means.
func costShiftRegression(sub string, before, after float64) *Regression {
	r := NewRegressionRecord(tsdb.ID("svc", sub, "gcpu"))
	r.Before = before
	r.After = after
	r.Delta = after - before
	if before != 0 {
		r.Relative = r.Delta / before
	}
	return r
}

func TestCostShiftDetectsRefactoring(t *testing.T) {
	// Figure 1(b): cost moves from Cache::put to Cache::get; the class
	// domain's total is unchanged, so the regression in Cache::get is a
	// cost shift.
	before := stacktrace.NewSampleSet()
	before.AddTraceString("main->Cache::get", 10)
	before.AddTraceString("main->Cache::put", 10)
	before.AddTraceString("main->other", 80)

	after := stacktrace.NewSampleSet()
	after.AddTraceString("main->Cache::get", 18)
	after.AddTraceString("main->Cache::put", 2)
	after.AddTraceString("main->other", 80)

	r := costShiftRegression("Cache::get", 0.10, 0.18)
	cfg := CostShiftConfig{MaxDomainCostRatio: 100}
	v := CheckCostShift(cfg, nil, r, before, after)
	if !v.IsCostShift {
		t.Fatalf("cost shift not detected: %+v", v)
	}
	if v.Domain == "" {
		t.Error("domain not named")
	}
}

func TestCostShiftKeepsTrueRegression(t *testing.T) {
	// Cache::get genuinely got more expensive: the class total rose too.
	before := stacktrace.NewSampleSet()
	before.AddTraceString("main->Cache::get", 10)
	before.AddTraceString("main->Cache::put", 10)
	before.AddTraceString("main->other", 80)

	after := stacktrace.NewSampleSet()
	after.AddTraceString("main->Cache::get", 18)
	after.AddTraceString("main->Cache::put", 10)
	after.AddTraceString("main->other", 80)

	r := costShiftRegression("Cache::get", 0.10, 18.0/108)
	cfg := CostShiftConfig{MaxDomainCostRatio: 100}
	v := CheckCostShift(cfg, nil, r, before, after)
	if v.IsCostShift {
		t.Errorf("true regression filtered as cost shift via %s", v.Domain)
	}
}

func TestCostShiftCallerDomain(t *testing.T) {
	// Cost shifts between two children of render; render's own subtree
	// cost is unchanged.
	before := stacktrace.NewSampleSet()
	before.AddTraceString("main->render->encode", 10)
	before.AddTraceString("main->render->layout", 10)
	before.AddTraceString("main->other", 80)

	after := stacktrace.NewSampleSet()
	after.AddTraceString("main->render->encode", 2)
	after.AddTraceString("main->render->layout", 18)
	after.AddTraceString("main->other", 80)

	r := costShiftRegression("layout", 0.10, 0.18)
	cfg := CostShiftConfig{MaxDomainCostRatio: 100}
	v := CheckCostShift(cfg, nil, r, before, after)
	if !v.IsCostShift {
		t.Fatalf("caller-domain cost shift not detected: %+v", v)
	}
	if v.Domain != "caller:render" {
		t.Errorf("domain = %q, want caller:render", v.Domain)
	}
}

func TestCostShiftNewSubroutineNotFiltered(t *testing.T) {
	// A brand-new subroutine has no pre-regression domain presence; the
	// paper's first rule says it cannot be a cost shift.
	before := stacktrace.NewSampleSet()
	before.AddTraceString("main->other", 100)

	after := stacktrace.NewSampleSet()
	after.AddTraceString("main->newfeature", 10)
	after.AddTraceString("main->other", 90)

	r := costShiftRegression("newfeature", 0, 0.10)
	r.Delta = 0.10
	cfg := CostShiftConfig{MaxDomainCostRatio: 100}
	v := CheckCostShift(cfg, nil, r, before, after)
	if v.IsCostShift {
		t.Errorf("new subroutine filtered: %+v", v)
	}
}

func TestCostShiftHugeDomainExcluded(t *testing.T) {
	// The paper's second rule: a 20% domain cannot judge a 0.005%
	// regression. With the ratio rule active the caller domain (~100% of
	// cost) must be excluded even though its total barely changes.
	before := stacktrace.NewSampleSet()
	before.AddTraceString("main->tiny", 5)
	before.AddTraceString("main->other", 99995)

	after := stacktrace.NewSampleSet()
	after.AddTraceString("main->tiny", 10)
	after.AddTraceString("main->other", 99990)

	r := costShiftRegression("tiny", 0.00005, 0.0001)
	v := CheckCostShift(CostShiftConfig{}, nil, r, before, after)
	// main's domain cost (1.0) is >> 2000*0.00005, so it is excluded; no
	// other domain exists, so the regression survives.
	if v.IsCostShift {
		t.Errorf("huge domain not excluded: %+v", v)
	}
}

func TestCostShiftDegenerate(t *testing.T) {
	r := costShiftRegression("x", 1, 2)
	if v := CheckCostShift(CostShiftConfig{}, nil, r, nil, nil); v.IsCostShift {
		t.Error("nil samples should not mark cost shift")
	}
	svc := NewRegressionRecord(tsdb.ID("svc", "", "cpu")) // service-level
	svc.Delta = 1
	ss := stacktrace.NewSampleSet()
	if v := CheckCostShift(CostShiftConfig{}, nil, svc, ss, ss); v.IsCostShift {
		t.Error("service-level metric should not be cost-shift checked")
	}
}

func TestClassDomainsSingleMethod(t *testing.T) {
	before := stacktrace.NewSampleSet()
	before.AddTraceString("main->Solo::only", 10)
	r := costShiftRegression("Solo::only", 0.1, 0.2)
	domains := (ClassDomains{}).Domains(r, before)
	if len(domains) != 0 {
		t.Errorf("single-method class should yield no domain: %v", domains)
	}
}

func TestCostDomainCost(t *testing.T) {
	ss := stacktrace.NewSampleSet()
	ss.AddTraceString("a->b", 30)
	ss.AddTraceString("c", 70)
	d := CostDomain{Name: "test", Subroutines: map[string]bool{"b": true}}
	if got := d.Cost(ss); !approx(got, 0.3, 1e-9) {
		t.Errorf("Cost = %v", got)
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
