package fbdetect

import (
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/fleet"
	"fbdetect/internal/kraken"
	"fbdetect/internal/pyperf"
	"fbdetect/internal/stacktrace"
)

var testStart = time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)

func TestPresetsMatchTable1(t *testing.T) {
	presets := Presets()
	if len(presets) != 12 {
		t.Fatalf("presets = %d, want 12 (Table 1 rows)", len(presets))
	}
	// Spot-check thresholds and windows against Table 1.
	cases := []struct {
		i         int
		name      string
		threshold float64
		relative  bool
		hist      time.Duration
	}{
		{0, "FrontFaaS (large)", 0.03, false, 10 * day},
		{1, "FrontFaaS (small)", 0.00005, false, 10 * day},
		{8, "Invoicer (short)", 0.005, false, 14 * day},
		{9, "CT-supply (short)", 0.05, true, 7 * day},
		{11, "CT-demand", 0.05, true, 7 * day},
	}
	for _, c := range cases {
		p := presets[c.i]
		if p.Name != c.name {
			t.Errorf("preset %d name = %q, want %q", c.i, p.Name, c.name)
		}
		if p.Threshold != c.threshold || p.RelativeThreshold != c.relative {
			t.Errorf("%s threshold = %v (rel=%v)", p.Name, p.Threshold, p.RelativeThreshold)
		}
		if p.Windows.Historic != c.hist {
			t.Errorf("%s historic = %v, want %v", p.Name, p.Windows.Historic, c.hist)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	// Simulate a small service and scan it with the root library.
	root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "handler", SelfWeight: 20, Children: []*fleet.Node{
			{Name: "serialize", SelfWeight: 10},
		}},
		{Name: "gc", SelfWeight: 9},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fleet.NewService(fleet.Config{
		Name:           "api",
		Servers:        2000,
		Step:           time.Minute,
		SamplesPerStep: 100000,
		BaseCPU:        0.4,
		CPUNoise:       0.05,
		BaseThroughput: 500,
		Tree:           tree,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log ChangeLog
	svc.ScheduleChange(fleet.ScheduledChange{
		At: testStart.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error {
			return tr.ScaleSelfWeight("serialize", 1.3)
		},
		Record: &Change{ID: "D7", Title: "new serializer", Subroutines: []string{"serialize"}},
	})
	db := NewDB(time.Minute)
	end := testStart.Add(9 * time.Hour)
	if err := svc.Run(db, &log, testStart, end); err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(Config{
		Threshold: 0.001,
		Windows: WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
	}, db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Scan("api", end)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reported) == 0 {
		t.Fatalf("no regressions reported; funnel %+v", res.Funnel)
	}
	found := false
	for _, r := range res.Reported {
		if r.Entity == "serialize" || r.Entity == "handler" || r.Entity == "main" {
			found = true
		}
	}
	if !found {
		t.Error("serialize regression lineage not reported")
	}
}

func TestPublicAPITraceHelpers(t *testing.T) {
	ss := NewSampleSet()
	ss.Add(ParseTrace("A->B"), 1)
	ss.Add(ParseTrace("C"), 1)
	if got := ss.GCPU("B"); got != 0.5 {
		t.Errorf("gCPU = %v", got)
	}
	f := Frame{Subroutine: "foo"}
	if stacktrace.SetFrameMetadata(f, "m").Metadata != "m" {
		t.Error("SetFrameMetadata failed")
	}
}

func TestPublicAPIPyPerf(t *testing.T) {
	p := pyperf.Process{
		NativeStack: []string{"_start", pyperf.EvalFrameSymbol, "C-lib"},
		VCSHead:     pyperf.BuildVCS("py_main"),
	}
	merged, err := pyperf.MergeStack(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 || merged[1] != "py_main" {
		t.Errorf("merged = %v", merged)
	}
}

func TestPublicAPIKraken(t *testing.T) {
	svc, err := kraken.New(kraken.Config{
		Name: "ct", Step: time.Hour,
		Server:     kraken.ServerModel{Capacity: 500, BaseLatency: 5 * time.Millisecond},
		PeakDemand: 10000,
		Prober:     kraken.Prober{LatencySLO: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(time.Hour)
	if err := svc.Run(db, testStart, testStart.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	s, err := db.Full(ID("ct", "", "max_throughput"))
	if err != nil || s.Len() != 24 {
		t.Errorf("supply series: %v, %v", s, err)
	}
}

func TestGenerateCallTreePublic(t *testing.T) {
	tree := fleet.Generate(rand.New(rand.NewSource(1)), 100, 4)
	if len(tree.Subroutines()) < 90 {
		t.Error("tree too small")
	}
}

func TestDefaultIssuePublic(t *testing.T) {
	is := fleet.DefaultIssue(fleet.CanaryTest, testStart, time.Hour)
	if !is.Active(testStart.Add(30 * time.Minute)) {
		t.Error("issue should be active")
	}
}

func TestPresetsRerunWithinAnalysisWindow(t *testing.T) {
	// The detection-delay experiment shows why this must hold: a re-run
	// interval longer than the analysis window lets a change point slide
	// from the analysis window into history between scans, missing the
	// regression forever. Every Table 1 row obeys it.
	for _, p := range Presets() {
		if p.RerunInterval > p.Windows.Analysis {
			t.Errorf("%s: rerun %v exceeds analysis window %v",
				p.Name, p.RerunInterval, p.Windows.Analysis)
		}
	}
}
