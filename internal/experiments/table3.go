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

// Table3Workload describes one column of the paper's Table 3.
type Table3Workload struct {
	Name string
	// Subroutines emitted as gCPU series.
	Subroutines int
	// TrueRegressions injected over the run.
	TrueRegressions int
	// CostShifts injected over the run.
	CostShifts int
	// TransientEvery is the interval between transient issues.
	TransientEvery time.Duration
	// SamplesPerStep controls gCPU noise.
	SamplesPerStep float64
	// LongTerm enables the long-term path (paper: FrontFaaS and AdServing
	// run it, PythonFaaS skips it).
	LongTerm bool
	Seed     int64
}

// Table3Column is the measured funnel for one workload.
type Table3Column struct {
	Workload Table3Workload
	Funnel   core.Funnel
	// TruePositivesReported counts injected regressions whose lineage was
	// reported (recall check, supplementing the paper's funnel).
	TruePositivesReported int
	Scans                 int
}

// Table3Result is the full table.
type Table3Result struct{ Columns []Table3Column }

func (r Table3Result) String() string {
	header := []string{"stage"}
	for _, c := range r.Columns {
		header = append(header, c.Workload.Name)
	}
	ratio := func(f core.Funnel, n int) string {
		total := f.ChangePoints + f.LongTermChangePoints
		if n == 0 {
			return "1/all"
		}
		return fmt.Sprintf("1/%.0f", float64(total)/float64(n))
	}
	rows := [][]string{
		{"# change points detected"},
		{"after went-away detection"},
		{"after seasonality detection"},
		{"after threshold filtering"},
		{"after SameRegressionMerger"},
		{"after SOMDedup"},
		{"after cost-shift analysis"},
		{"after PairwiseDedup"},
		{"injected regressions caught"},
	}
	for _, c := range r.Columns {
		f := c.Funnel
		rows[0] = append(rows[0], fmt.Sprintf("%d (+%d long-term)", f.ChangePoints, f.LongTermChangePoints))
		rows[1] = append(rows[1], ratio(f, f.AfterWentAway))
		rows[2] = append(rows[2], ratio(f, f.AfterSeasonality))
		rows[3] = append(rows[3], ratio(f, f.AfterThreshold))
		rows[4] = append(rows[4], ratio(f, f.AfterSameMerger))
		rows[5] = append(rows[5], ratio(f, f.AfterSOMDedup))
		rows[6] = append(rows[6], ratio(f, f.AfterCostShift))
		rows[7] = append(rows[7], ratio(f, f.AfterPairwise))
		rows[8] = append(rows[8], fmt.Sprintf("%d/%d", c.TruePositivesReported, c.Workload.TrueRegressions))
	}
	return "Table 3: filtering effectiveness (scaled-down one-week run)\n" +
		table(header, rows)
}

// Table3Workloads returns the scaled-down analogues of the paper's three
// workloads. The paper's month of production data over ~800k series is
// scaled to a simulated week over ~100-200 series per workload; ratios are
// therefore smaller but ordered the same way.
func Table3Workloads() []Table3Workload {
	return []Table3Workload{
		{Name: "FrontFaaS", Subroutines: 120, TrueRegressions: 3, CostShifts: 2,
			TransientEvery: 5 * time.Hour, SamplesPerStep: 3e5, LongTerm: true, Seed: 101},
		{Name: "PythonFaaS", Subroutines: 80, TrueRegressions: 2, CostShifts: 1,
			TransientEvery: 7 * time.Hour, SamplesPerStep: 1e5, LongTerm: false, Seed: 202},
		{Name: "AdServing", Subroutines: 60, TrueRegressions: 2, CostShifts: 0,
			TransientEvery: 6 * time.Hour, SamplesPerStep: 2e5, LongTerm: true, Seed: 303},
	}
}

// RunTable3 simulates each workload for a week with injected true
// regressions, cost shifts, and a steady drumbeat of transient issues,
// scans every four hours, and accumulates the per-stage funnel.
func RunTable3() Table3Result {
	res := Table3Result{}
	for _, w := range Table3Workloads() {
		res.Columns = append(res.Columns, runTable3Workload(w))
	}
	return res
}

func runTable3Workload(w Table3Workload) Table3Column {
	const step = 5 * time.Minute
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	days := 7
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	rng := rand.New(rand.NewSource(w.Seed))

	tree := fleet.Generate(rng, w.Subroutines, 4)
	subs := tree.Subroutines()

	svc, err := fleet.NewService(fleet.Config{
		Name:           w.Name,
		Servers:        50000,
		Step:           step,
		SamplesPerStep: w.SamplesPerStep,
		BaseCPU:        0.5,
		CPUNoise:       0.08,
		SeasonalAmp:    0.06,
		SeasonalPeriod: 24 * time.Hour,
		BaseThroughput: 1e6,
		BaseLatency:    30,
		LatencyNoise:   0.8,
		Tree:           tree,
		Seed:           w.Seed * 7,
	})
	if err != nil {
		panic(err)
	}

	var log changelog.Log
	victims := pickVictims(rng, tree, subs, w.TrueRegressions)
	// True regressions land in the second half of the run so scans'
	// analysis windows cover them.
	for i, victim := range victims {
		at := start.Add(84*time.Hour + time.Duration(i)*12*time.Hour)
		v := victim
		svc.ScheduleChange(fleet.ScheduledChange{
			At:     at,
			Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight(v, 1.3) },
			Record: &changelog.Change{
				ID:          fmt.Sprintf("D-true-%d", i),
				Title:       "change " + v + " implementation",
				Subroutines: []string{v},
			},
		})
	}
	// Cost shifts between sibling pairs.
	shifts := 0
	for _, sub := range subs {
		if shifts >= w.CostShifts {
			break
		}
		node := tree.Node(sub)
		if node == nil || len(node.Children) < 2 {
			continue
		}
		a, b := node.Children[0].Name, node.Children[1].Name
		if tree.Node(a).SelfWeight <= 0 {
			continue
		}
		amount := tree.Node(a).SelfWeight * 0.5
		at := start.Add(96*time.Hour + time.Duration(shifts)*8*time.Hour)
		svc.ScheduleChange(fleet.ScheduledChange{
			At:     at,
			Effect: func(tr *fleet.Tree) error { return tr.ShiftWeight(a, b, amount) },
			Record: &changelog.Change{
				ID:          fmt.Sprintf("D-shift-%d", shifts),
				Title:       "refactor: move work from " + a + " to " + b,
				Subroutines: []string{a, b},
			},
		})
		shifts++
	}
	// Transient issues throughout.
	issueTypes := []fleet.IssueType{fleet.ServerFailure, fleet.Maintenance,
		fleet.LoadSpike, fleet.RollingUpdate, fleet.CanaryTest, fleet.TrafficShift}
	for at := start.Add(w.TransientEvery); at.Before(end); at = at.Add(w.TransientEvery) {
		typ := issueTypes[rng.Intn(len(issueTypes))]
		dur := time.Duration(10+rng.Intn(50)) * time.Minute
		svc.ScheduleIssue(fleet.DefaultIssue(typ, at, dur))
	}

	db := tsdb.New(step)
	if err := svc.Run(db, &log, start, end); err != nil {
		panic(err)
	}

	cfg := core.Config{
		Name:      w.Name,
		Threshold: 0.0002,
		Windows: timeseries.WindowConfig{
			Historic: 48 * time.Hour,
			Analysis: 8 * time.Hour,
			Extended: 4 * time.Hour,
		},
		LongTerm: w.LongTerm,
	}
	pipe, err := core.NewPipeline(cfg, db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		panic(err)
	}

	col := Table3Column{Workload: w}
	caught := map[string]bool{}
	firstScan := start.Add(cfg.Windows.Total())
	for scan := firstScan; !scan.After(end); scan = scan.Add(4 * time.Hour) {
		r, err := pipe.Scan(w.Name, scan)
		if err != nil {
			panic(err)
		}
		col.Funnel.Add(r.Funnel)
		col.Scans++
		for _, reg := range r.Reported {
			for i, victim := range victims {
				if inLineage(tree, victim, reg.Entity) {
					caught[fmt.Sprintf("v%d", i)] = true
				}
			}
		}
	}
	col.TruePositivesReported = len(caught)
	return col
}

// pickVictims selects distinct mid-weight leaf subroutines to regress.
func pickVictims(rng *rand.Rand, tree *fleet.Tree, subs []string, n int) []string {
	var leaves []string
	for _, s := range subs {
		node := tree.Node(s)
		if len(node.Children) == 0 && node.SelfWeight > 1.0 {
			leaves = append(leaves, s)
		}
	}
	rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	if n > len(leaves) {
		n = len(leaves)
	}
	return leaves[:n]
}

// inLineage reports whether entity is the victim or one of its ancestors
// (whose gCPU also regressed).
func inLineage(tree *fleet.Tree, victim, entity string) bool {
	if entity == victim {
		return true
	}
	for _, anc := range tree.Path(victim) {
		if anc == entity {
			return true
		}
	}
	return false
}
