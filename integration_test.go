package fbdetect

import (
	"strings"
	"testing"
	"time"

	"fbdetect/internal/fleet"
	"fbdetect/internal/tao"
)

// TestProductionReplay is the repository's soak test: three days of three
// concurrently simulated systems — a serverless web tier with stack
// sampling, a TAO graph store with per-data-type I/O, and a Capacity
// Triage target probed by Kraken — scanned continuously by monitors.
// Each injected regression must be reported (exactly once per underlying
// event), transients must not be, and a clean control service must stay
// silent.
func TestProductionReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day multi-service replay")
	}
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	const step = 5 * time.Minute
	end := start.Add(3 * 24 * time.Hour)
	db := NewDB(step)
	var changes ChangeLog

	// --- web tier with stack sampling ---
	webTree, err := fleet.NewTree(&fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "router", SelfWeight: 5, Children: []*fleet.Node{
			{Name: "Feed::rank", Class: "Feed", SelfWeight: 20},
			{Name: "Feed::render", Class: "Feed", SelfWeight: 30},
		}},
		{Name: "serialize", SelfWeight: 25},
		{Name: "compress", SelfWeight: 19},
	}})
	if err != nil {
		t.Fatal(err)
	}
	web, err := fleet.NewService(fleet.Config{
		Name: "web", Servers: 50000, Step: step,
		SamplesPerStep: 4e5, BaseCPU: 0.55, CPUNoise: 0.08,
		SeasonalAmp: 0.05, SeasonalPeriod: 24 * time.Hour,
		BaseThroughput: 2e5, Tree: webTree, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	webChangeAt := start.Add(60 * time.Hour)
	web.ScheduleChange(fleet.ScheduledChange{
		At:     webChangeAt,
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("serialize", 1.2) },
		Record: &Change{ID: "D-web", Title: "serializer rewrite", Subroutines: []string{"serialize"}},
	})
	// Cost shift inside the Feed class at a different time.
	web.ScheduleChange(fleet.ScheduledChange{
		At:     start.Add(40 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ShiftWeight("Feed::rank", "Feed::render", 10) },
		Record: &Change{ID: "D-refactor", Title: "move ranking into render",
			Subroutines: []string{"Feed::rank", "Feed::render"}},
	})
	// A drumbeat of transient issues.
	for at := start.Add(3 * time.Hour); at.Before(end); at = at.Add(9 * time.Hour) {
		web.ScheduleIssue(fleet.DefaultIssue(fleet.LoadSpike, at, 40*time.Minute))
	}
	if err := web.Run(db, &changes, start, end); err != nil {
		t.Fatal(err)
	}

	// --- clean control service: nothing should ever be reported ---
	ctrlTree, err := fleet.NewTree(&fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "work", SelfWeight: 49},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := fleet.NewService(fleet.Config{
		Name: "control", Servers: 5000, Step: step,
		SamplesPerStep: 1e5, BaseCPU: 0.4, CPUNoise: 0.06,
		BaseThroughput: 1e4, Tree: ctrlTree, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Run(db, nil, start, end); err != nil {
		t.Fatal(err)
	}

	// --- TAO with a per-data-type I/O regression ---
	store := tao.NewStore()
	taoWl, err := tao.NewWorkload(tao.WorkloadConfig{
		Service: "tao", Step: step,
		Mixes: []tao.TypeMix{
			{DataType: "user", ReadsPerStep: 500, WritesPerStep: 50},
			{DataType: "post", ReadsPerStep: 800, WritesPerStep: 100},
		},
		RateNoise: 0.02, Objects: 2000, Seed: 47,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	taoChangeAt := start.Add(58 * time.Hour)
	taoWl.ScheduleMixEvent(tao.MixEvent{At: taoChangeAt, DataType: "user", ReadFactor: 1.3})
	if err := taoWl.Run(db, start, end); err != nil {
		t.Fatal(err)
	}

	// --- detection: one pipeline per platform ---
	cfg := Config{
		Threshold: 0.0005,
		Windows: WindowConfig{
			Historic: 36 * time.Hour,
			Analysis: 8 * time.Hour,
			Extended: 4 * time.Hour,
		},
	}
	webDet, err := NewDetector(cfg, db, &changes, fleet.SamplesOf(web, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	webMon, err := NewMonitor(webDet, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	webMon.Watch("web")
	webMon.Watch("control")
	if err := webMon.RunVirtual(start.Add(cfg.Windows.Total()), end); err != nil {
		t.Fatal(err)
	}

	taoCfg := cfg
	taoCfg.Threshold = 0.1
	taoCfg.RelativeThreshold = true
	taoDet, err := NewDetector(taoCfg, db, &changes, nil)
	if err != nil {
		t.Fatal(err)
	}
	taoMon, err := NewMonitor(taoDet, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	taoMon.Watch("tao")
	if err := taoMon.RunVirtual(start.Add(cfg.Windows.Total()), end); err != nil {
		t.Fatal(err)
	}

	// --- assertions ---
	webReports := webMon.Reports()
	serializeReports, costShiftReports, controlReports := 0, 0, 0
	for _, r := range webReports {
		switch {
		case r.Service == "control":
			controlReports++
		case r.Entity == "serialize" || r.Entity == "main":
			serializeReports++
			// Root cause must rank the true change first.
			if len(r.RootCauses) > 0 && r.RootCauses[0].ChangeID != "D-web" {
				t.Errorf("top root cause = %s, want D-web", r.RootCauses[0].ChangeID)
			}
		case strings.HasPrefix(r.Entity, "Feed::"):
			costShiftReports++
		}
	}
	if serializeReports == 0 {
		t.Error("web serializer regression never reported")
	}
	if serializeReports > 2 {
		t.Errorf("web regression over-reported %d times", serializeReports)
	}
	if costShiftReports != 0 {
		t.Errorf("Feed cost shift reported %d times", costShiftReports)
	}
	if controlReports != 0 {
		t.Errorf("clean control service reported %d regressions", controlReports)
	}

	taoReports := taoMon.Reports()
	userIO := 0
	for _, r := range taoReports {
		if r.Entity == "type:user" && r.Name == "reads_per_step" {
			userIO++
		}
		if r.Entity == "type:post" {
			t.Errorf("unchanged data type reported: %v", r)
		}
	}
	if userIO == 0 {
		t.Error("TAO per-data-type I/O regression never reported")
	}
	if userIO > 2 {
		t.Errorf("TAO regression over-reported %d times", userIO)
	}

	// The funnel must show substantial filtering given the transients.
	funnel, scans := webMon.Stats()
	if scans < 10 {
		t.Errorf("scans = %d", scans)
	}
	if funnel.ChangePoints < 5 {
		t.Errorf("suspiciously few change points: %+v", funnel)
	}
	if funnel.AfterPairwise*3 > funnel.ChangePoints {
		t.Errorf("funnel barely filtered: %+v", funnel)
	}
}
