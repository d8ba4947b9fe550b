package fleet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/stats"
	"fbdetect/internal/tsdb"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

// smallTree builds a fixed tree:
//
//	main (0)
//	├── render (10)
//	│   ├── Cache::get (5)
//	│   └── Cache::put (5)
//	└── fetch (30)
func smallTree(t *testing.T) *Tree {
	t.Helper()
	root := &Node{Name: "main", SelfWeight: 0, Children: []*Node{
		{Name: "render", SelfWeight: 10, Children: []*Node{
			{Name: "Cache::get", Class: "Cache", SelfWeight: 5},
			{Name: "Cache::put", Class: "Cache", SelfWeight: 5},
		}},
		{Name: "fetch", SelfWeight: 30},
	}}
	tree, err := NewTree(root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Error("nil root should fail")
	}
	dup := &Node{Name: "a", Children: []*Node{{Name: "a"}}}
	if _, err := NewTree(dup); err == nil {
		t.Error("duplicate names should fail")
	}
	neg := &Node{Name: "a", SelfWeight: -1}
	if _, err := NewTree(neg); err == nil {
		t.Error("negative weight should fail")
	}
	unnamed := &Node{Name: ""}
	if _, err := NewTree(unnamed); err == nil {
		t.Error("unnamed node should fail")
	}
}

func TestTreeGCPU(t *testing.T) {
	tree := smallTree(t)
	// total = 50; render subtree = 20; fetch = 30; Cache::get = 5.
	if got := tree.GCPU("render"); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("gCPU(render) = %v, want 0.4", got)
	}
	if got := tree.GCPU("fetch"); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("gCPU(fetch) = %v, want 0.6", got)
	}
	if got := tree.GCPU("main"); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("gCPU(main) = %v, want 1", got)
	}
	if tree.GCPU("nope") != 0 {
		t.Error("unknown subroutine should be 0")
	}
	all := tree.GCPUAll()
	if math.Abs(all["Cache::get"]-0.1) > 1e-9 {
		t.Errorf("GCPUAll[Cache::get] = %v", all["Cache::get"])
	}
}

func TestTreePath(t *testing.T) {
	tree := smallTree(t)
	p := tree.Path("Cache::get")
	want := []string{"main", "render", "Cache::get"}
	if len(p) != 3 {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("path = %v, want %v", p, want)
		}
	}
	if tree.Path("nope") != nil {
		t.Error("unknown path should be nil")
	}
}

func TestScaleAndShift(t *testing.T) {
	tree := smallTree(t)
	if err := tree.ScaleSelfWeight("fetch", 1.5); err != nil {
		t.Fatal(err)
	}
	// total = 20 + 45 = 65; fetch = 45.
	if got := tree.GCPU("fetch"); math.Abs(got-45.0/65) > 1e-9 {
		t.Errorf("scaled gCPU = %v", got)
	}
	if err := tree.ScaleSelfWeight("nope", 2); err == nil {
		t.Error("unknown subroutine should fail")
	}
	if err := tree.ScaleSelfWeight("fetch", -1); err == nil {
		t.Error("negative factor should fail")
	}

	tree2 := smallTree(t)
	before := tree2.TotalWeight()
	if err := tree2.ShiftWeight("Cache::get", "Cache::put", 3); err != nil {
		t.Fatal(err)
	}
	if tree2.TotalWeight() != before {
		t.Error("shift must preserve total cost")
	}
	if tree2.Node("Cache::get").SelfWeight != 2 || tree2.Node("Cache::put").SelfWeight != 8 {
		t.Error("shift amounts wrong")
	}
	if err := tree2.ShiftWeight("Cache::get", "Cache::put", 100); err == nil {
		t.Error("over-shift should fail")
	}
	if err := tree2.ShiftWeight("x", "y", 1); err == nil {
		t.Error("unknown nodes should fail")
	}
}

func TestAddSubroutine(t *testing.T) {
	tree := smallTree(t)
	if err := tree.AddSubroutine("render", "render_new", "", 5); err != nil {
		t.Fatal(err)
	}
	if tree.GCPU("render_new") == 0 {
		t.Error("new subroutine invisible")
	}
	p := tree.Path("render_new")
	if len(p) != 3 || p[1] != "render" {
		t.Errorf("path = %v", p)
	}
	if err := tree.AddSubroutine("nope", "x", "", 1); err == nil {
		t.Error("unknown parent should fail")
	}
	if err := tree.AddSubroutine("render", "fetch", "", 1); err == nil {
		t.Error("duplicate name should fail")
	}
}

func TestCloneIsolation(t *testing.T) {
	tree := smallTree(t)
	clone := tree.Clone()
	clone.ScaleSelfWeight("fetch", 10)
	if tree.GCPU("fetch") == clone.GCPU("fetch") {
		t.Error("clone shares state")
	}
	// Paths preserved in clone.
	if p := clone.Path("Cache::get"); len(p) != 3 {
		t.Errorf("clone path = %v", p)
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree := Generate(rng, 200, 4)
	subs := tree.Subroutines()
	if len(subs) < 190 || len(subs) > 210 {
		t.Errorf("generated %d subroutines", len(subs))
	}
	// gCPU of the root must be 1.
	if got := tree.GCPU(tree.Root.Name); math.Abs(got-1) > 1e-9 {
		t.Errorf("root gCPU = %v", got)
	}
	// Some nodes must have classes.
	hasClass := false
	for _, s := range subs {
		if tree.Node(s).Class != "" {
			hasClass = true
		}
	}
	if !hasClass {
		t.Error("no classes generated")
	}
}

// TotalWeight feeds every gCPU and sample weight, so repeated calls on one
// tree must return the same bits.
func TestTotalWeightDeterministic(t *testing.T) {
	tree := Generate(rand.New(rand.NewSource(1)), 400, 4)
	want := tree.TotalWeight()
	for i := 0; i < 200; i++ {
		if got := tree.TotalWeight(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalWeight = %v, first call gave %v", i, got, want)
		}
	}
}

func TestSamplesAdapter(t *testing.T) {
	svc, err := NewService(Config{Name: "a", Servers: 10, Step: time.Minute,
		SamplesPerStep: 1000, BaseCPU: 0.5, BaseThroughput: 100, Tree: smallTree(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	from, to := t0, t0.Add(time.Hour)
	want := svc.ExpectedSamplesBetween(from, to, 500).Total()
	if got := SamplesOf(svc, 500).SamplesBetween("other", from, to).Total(); got != want {
		t.Errorf("SamplesOf total = %v, want %v", got, want)
	}
	byName := SamplesByName(map[string]*Service{"a": svc}, 500)
	if got := byName.SamplesBetween("a", from, to).Total(); got != want {
		t.Errorf("SamplesByName total = %v, want %v", got, want)
	}
	if got := byName.SamplesBetween("missing", from, to).Len(); got != 0 {
		t.Errorf("unknown service gave %d traces", got)
	}
}

func TestExpectedSamples(t *testing.T) {
	tree := smallTree(t)
	ss := tree.ExpectedSamples(1000)
	if math.Abs(ss.Total()-1000) > 1e-6 {
		t.Errorf("total = %v", ss.Total())
	}
	// gCPU from expected samples must equal true gCPU.
	for _, sub := range tree.Subroutines() {
		want := tree.GCPU(sub)
		if got := ss.GCPU(sub); math.Abs(got-want) > 1e-9 {
			t.Errorf("gCPU(%s) = %v, want %v", sub, got, want)
		}
	}
	// Classes flow through to frames.
	if got := ss.ClassOf("Cache::get"); got != "Cache" {
		t.Errorf("ClassOf = %q", got)
	}
	if tree.ExpectedSamples(0).Len() != 0 {
		t.Error("zero samples should be empty")
	}
}

func TestIssueActive(t *testing.T) {
	is := DefaultIssue(LoadSpike, t0, time.Hour)
	if !is.Active(t0) || !is.Active(t0.Add(30*time.Minute)) {
		t.Error("should be active")
	}
	if is.Active(t0.Add(-time.Second)) || is.Active(t0.Add(time.Hour)) {
		t.Error("should be inactive outside [start, end)")
	}
	if is.ThroughputFactor <= 1 {
		t.Error("load spike should raise throughput")
	}
	if ServerFailure.String() != "server-failure" {
		t.Error("IssueType.String wrong")
	}
}

func serviceConfig(t *testing.T, tree *Tree) Config {
	t.Helper()
	return Config{
		Name:            "svc",
		Servers:         1000,
		Step:            time.Minute,
		SamplesPerStep:  10000,
		BaseCPU:         0.5,
		CPUNoise:        0.1,
		BaseThroughput:  100,
		ThroughputNoise: 2,
		BaseLatency:     50,
		LatencyNoise:    1,
		BaseErrorRate:   0.001,
		ErrorNoise:      0.0001,
		Tree:            tree,
		Seed:            7,
	}
}

func TestServiceValidation(t *testing.T) {
	tree := smallTree(t)
	bad := []Config{
		{},
		{Name: "x", Servers: 0, Step: time.Minute, Tree: tree},
		{Name: "x", Servers: 1, Step: 0, Tree: tree},
		{Name: "x", Servers: 1, Step: time.Minute},
		{Name: "x", Servers: 1, Step: time.Minute, Tree: tree, BaseCPU: 2},
	}
	for i, cfg := range bad {
		if _, err := NewService(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	gens := serviceConfig(t, tree)
	gens.Generations = []Generation{{Name: "g1", Fraction: 0.5, SpeedFactor: 1}}
	if _, err := NewService(gens); err == nil {
		t.Error("fractions not summing to 1 should fail")
	}
}

func TestServiceRunEmitsMetrics(t *testing.T) {
	tree := smallTree(t)
	svc, err := NewService(serviceConfig(t, tree))
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(time.Minute)
	if err := svc.Run(db, nil, t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	cpu, err := db.Full(tsdb.ID("svc", "", "cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Len() != 120 {
		t.Errorf("cpu points = %d", cpu.Len())
	}
	m := stats.Mean(cpu.Values)
	if m < 0.45 || m > 0.55 {
		t.Errorf("cpu mean = %v, want ~0.5", m)
	}
	g, err := db.Full(tsdb.ID("svc", "fetch", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	if gm := stats.Mean(g.Values); math.Abs(gm-0.6) > 0.01 {
		t.Errorf("gcpu(fetch) mean = %v, want ~0.6", gm)
	}
	for _, metric := range []string{"throughput", "latency", "error_rate"} {
		if _, err := db.Full(tsdb.ID("svc", "", metric)); err != nil {
			t.Errorf("missing %s: %v", metric, err)
		}
	}
}

func TestServiceChangeShiftsGCPU(t *testing.T) {
	tree := smallTree(t)
	svc, err := NewService(serviceConfig(t, tree))
	if err != nil {
		t.Fatal(err)
	}
	changeAt := t0.Add(time.Hour)
	svc.ScheduleChange(ScheduledChange{
		At:     changeAt,
		Effect: func(tr *Tree) error { return tr.ScaleSelfWeight("fetch", 1.2) },
		Record: &changelog.Change{ID: "D123", Title: "speed up fetch (not)", Subroutines: []string{"fetch"}},
	})
	db := tsdb.New(time.Minute)
	var log changelog.Log
	if err := svc.Run(db, &log, t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	g, _ := db.Full(tsdb.ID("svc", "fetch", "gcpu"))
	before := stats.Mean(g.Values[:60])
	after := stats.Mean(g.Values[60:])
	if after-before < 0.02 {
		t.Errorf("gcpu change = %v, expected visible regression", after-before)
	}
	// CPU should also rise (total cost grew).
	cpu, _ := db.Full(tsdb.ID("svc", "", "cpu"))
	cb := stats.Mean(cpu.Values[:60])
	ca := stats.Mean(cpu.Values[60:])
	if ca <= cb {
		t.Errorf("cpu did not rise: %v -> %v", cb, ca)
	}
	// The change was recorded with service and deploy time filled in.
	recs := log.Between("", time.Time{}, t0.AddDate(100, 0, 0)) // the whole log
	if len(recs) != 1 {
		t.Fatalf("log has %d changes", len(recs))
	}
	rec := recs[0]
	if rec.Service != "svc" || !rec.DeployedAt.Equal(changeAt) || rec.ID != "D123" {
		t.Errorf("recorded change = %+v", rec)
	}
}

func TestServiceIssueIsTransient(t *testing.T) {
	tree := smallTree(t)
	cfg := serviceConfig(t, tree)
	cfg.ThroughputNoise = 0.5
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.ScheduleIssue(DefaultIssue(TrafficShift, t0.Add(30*time.Minute), 30*time.Minute))
	db := tsdb.New(time.Minute)
	if err := svc.Run(db, nil, t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	thr, _ := db.Full(tsdb.ID("svc", "", "throughput"))
	pre := stats.Mean(thr.Values[:30])
	during := stats.Mean(thr.Values[31:59])
	post := stats.Mean(thr.Values[61:])
	if during >= pre*0.8 {
		t.Errorf("issue had no visible impact: pre=%v during=%v", pre, during)
	}
	if math.Abs(post-pre) > pre*0.05 {
		t.Errorf("did not recover: pre=%v post=%v", pre, post)
	}
}

func TestSeasonality(t *testing.T) {
	tree := smallTree(t)
	cfg := serviceConfig(t, tree)
	cfg.SeasonalAmp = 0.2
	cfg.SeasonalPeriod = time.Hour
	cfg.CPUNoise = 0.001
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(time.Minute)
	if err := svc.Run(db, nil, t0, t0.Add(4*time.Hour)); err != nil {
		t.Fatal(err)
	}
	cpu, _ := db.Full(tsdb.ID("svc", "", "cpu"))
	// Strong autocorrelation at the 60-minute lag. The estimator's
	// (n-lag)/n bias caps it at 0.75 for 4 periods of a pure sinusoid.
	if c := stats.Autocorrelation(cpu.Values, 60); c < 0.7 {
		t.Errorf("seasonal autocorrelation = %v", c)
	}
}

func TestTreeAtEpochs(t *testing.T) {
	tree := smallTree(t)
	svc, err := NewService(serviceConfig(t, tree))
	if err != nil {
		t.Fatal(err)
	}
	changeAt := t0.Add(time.Hour)
	svc.ScheduleChange(ScheduledChange{
		At:     changeAt,
		Effect: func(tr *Tree) error { return tr.ScaleSelfWeight("fetch", 2) },
	})
	before := svc.TreeAt(t0)
	if got := before.GCPU("fetch"); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("pre-change gCPU = %v", got)
	}
	after := svc.TreeAt(t0.Add(2 * time.Hour))
	if got := after.GCPU("fetch"); got <= 0.6 {
		t.Errorf("post-change gCPU = %v", got)
	}
	// TreeAt before the change still returns the old tree after
	// materialization.
	if got := svc.TreeAt(t0).GCPU("fetch"); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("pre-change gCPU after materialization = %v", got)
	}
}

func TestExpectedSamplesBetweenMixesEpochs(t *testing.T) {
	tree := smallTree(t)
	svc, err := NewService(serviceConfig(t, tree))
	if err != nil {
		t.Fatal(err)
	}
	changeAt := t0.Add(time.Hour)
	svc.ScheduleChange(ScheduledChange{
		At:     changeAt,
		Effect: func(tr *Tree) error { return tr.ScaleSelfWeight("fetch", 2) },
	})
	// Window entirely before the change: old gCPU.
	pre := svc.ExpectedSamplesBetween(t0, changeAt, 1000)
	if got := pre.GCPU("fetch"); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("pre gCPU = %v", got)
	}
	// Window entirely after: new gCPU = 60/80 = 0.75.
	post := svc.ExpectedSamplesBetween(changeAt, changeAt.Add(time.Hour), 1000)
	if got := post.GCPU("fetch"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("post gCPU = %v", got)
	}
	// Straddling window: between the two.
	mixRaw := svc.ExpectedSamplesBetween(t0, t0.Add(2*time.Hour), 1000)
	if got := mixRaw.GCPU("fetch"); got <= 0.6 || got >= 0.75 {
		t.Errorf("straddling gCPU = %v, want in (0.6, 0.75)", got)
	}
	if math.Abs(mixRaw.Total()-1000) > 1e-6 {
		t.Errorf("total = %v", mixRaw.Total())
	}
}
