package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// RCAAccuracyResult reproduces §6.3: across many regressions with decoy
// changes, how often FBDetect suggests root causes, how often the true
// cause is in the top three, and whether it correctly stays silent when
// the true change was never exported to it.
type RCAAccuracyResult struct {
	Scenarios int
	// Suggested counts scenarios where FBDetect offered candidates.
	Suggested int
	// Top3Correct counts suggestions whose top-3 contains the true cause
	// (the paper's success criterion: 71 of 75).
	Top3Correct int
	// UnexportedSilent counts not-exported scenarios where FBDetect
	// appropriately suggested nothing (§6.3: 11 of 61 unexplained cases
	// were changes not exported to FBDetect).
	UnexportedScenarios int
	UnexportedSilent    int
}

func (r RCAAccuracyResult) String() string {
	pct := func(a, b int) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%d/%d (%.0f%%)", a, b, float64(a)/float64(b)*100)
	}
	rows := [][]string{
		{"suggested a root cause", pct(r.Suggested, r.Scenarios)},
		{"true cause in top-3 when suggested", pct(r.Top3Correct, r.Suggested)},
		{"silent when change not exported", pct(r.UnexportedSilent, r.UnexportedScenarios)},
	}
	return "Root-cause analysis accuracy (§6.3 style; paper: 71/75 = 95% top-3 when suggested)\n" +
		table([]string{"measure", "result"}, rows)
}

// RunRCAAccuracy runs many independent regression scenarios. Each deploys
// one true cause plus 6-14 decoy changes in the lookback window; a
// quarter of scenarios do NOT export the true change to the change log
// (the paper's "changes not exported to FBDetect" category), where the
// appropriate outcome is no suggestion.
func RunRCAAccuracy(seed int64) RCAAccuracyResult {
	rng := rand.New(rand.NewSource(seed))
	res := RCAAccuracyResult{}
	const scenarios = 40
	for i := 0; i < scenarios; i++ {
		exported := i%4 != 0
		suggested, correct := runRCAScenario(rng, int64(i)*131+seed, exported)
		res.Scenarios++
		if !exported {
			res.UnexportedScenarios++
			if !suggested {
				res.UnexportedSilent++
			}
			continue
		}
		if suggested {
			res.Suggested++
			if correct {
				res.Top3Correct++
			}
		}
	}
	return res
}

// runRCAScenario returns (suggested, top3Correct) for one scenario.
func runRCAScenario(rng *rand.Rand, seed int64, exportTrueChange bool) (bool, bool) {
	root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "handler", SelfWeight: 20, Children: []*fleet.Node{
			{Name: "victim", SelfWeight: 8},
			{Name: "sibling", SelfWeight: 12},
		}},
		{Name: "other", SelfWeight: 59},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		panic(err)
	}
	svc, err := fleet.NewService(fleet.Config{
		Name: "svc", Servers: 20000, Step: time.Minute,
		SamplesPerStep: 3e5, BaseCPU: 0.5, CPUNoise: 0.05,
		BaseThroughput: 1e4, Tree: tree, Seed: seed,
		EmitSubroutines: []string{"victim", "sibling", "handler", "other", "main"},
	})
	if err != nil {
		panic(err)
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	changeAt := start.Add(7 * time.Hour)
	var log changelog.Log
	record := &changelog.Change{
		ID: "D-true", Title: "change victim computation",
		Subroutines: []string{"victim"},
	}
	if !exportTrueChange {
		record = nil
	}
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     changeAt,
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("victim", 1.3) },
		Record: record,
	})
	// Decoy changes scattered through the lookback window, touching
	// subroutines disjoint from the victim's subtree. (A change to a
	// direct ancestor is a genuine suspect under Table 2's attribution —
	// every victim sample flows through it — so ancestors are not decoys.)
	decoys := 6 + rng.Intn(9)
	decoySubs := []string{"sibling", "other"}
	for d := 0; d < decoys; d++ {
		at := changeAt.Add(-time.Duration(1+rng.Intn(20)) * time.Hour)
		sub := decoySubs[rng.Intn(len(decoySubs))]
		log.Record(&changelog.Change{
			ID:          fmt.Sprintf("D-decoy-%d", d),
			Title:       fmt.Sprintf("refactor %s internals", sub),
			Subroutines: []string{sub},
			Service:     "svc",
			DeployedAt:  at,
		})
	}

	db := tsdb.New(time.Minute)
	end := start.Add(9 * time.Hour)
	if err := svc.Run(db, &log, start, end); err != nil {
		panic(err)
	}
	cfg := core.Config{
		Threshold: 0.005,
		MetricThresholds: map[string]float64{
			"throughput": 0.05, "cpu": 0.05,
		},
		MetricRelative: map[string]bool{"throughput": true, "cpu": true},
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	pipe, err := core.NewPipeline(cfg, db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		panic(err)
	}
	scan, err := pipe.Scan("svc", end)
	if err != nil {
		panic(err)
	}
	for _, r := range scan.Reported {
		if r.Entity != "victim" && r.Entity != "handler" && r.Entity != "main" {
			continue
		}
		if len(r.RootCauses) == 0 {
			return false, false
		}
		top := r.RootCauses
		if len(top) > 3 {
			top = top[:3]
		}
		for _, rc := range top {
			if rc.ChangeID == "D-true" {
				return true, true
			}
		}
		return true, false
	}
	return false, false
}
