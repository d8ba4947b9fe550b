package experiments

import (
	"fmt"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// DelayPoint is the measured detection delay at one re-run interval.
type DelayPoint struct {
	RerunInterval time.Duration
	Delay         time.Duration // first report time - deploy time; -1 if missed
	Scans         int
}

// DetectionDelayResult measures how the re-run interval trades
// infrastructure cost against timeliness — the reason Table 1 runs a
// fast/coarse and a slow/fine configuration side by side per workload.
type DetectionDelayResult struct {
	Points []DelayPoint
}

func (r DetectionDelayResult) String() string {
	var rows [][]string
	for _, p := range r.Points {
		delay := "missed"
		if p.Delay >= 0 {
			delay = p.Delay.String()
		}
		rows = append(rows, []string{p.RerunInterval.String(), delay,
			fmt.Sprintf("%d", p.Scans)})
	}
	return "Detection delay vs re-run interval (regression deployed mid-run)\n" +
		table([]string{"re-run interval", "delay to first report", "scans"}, rows)
}

// RunDetectionDelay deploys a clear regression mid-run and measures, for
// several re-run intervals, how long until the first report. Shorter
// intervals catch it sooner but scan (and burn capacity) more often —
// the paper's motivation for the per-workload interval tuning of Table 1.
func RunDetectionDelay(seed int64) DetectionDelayResult {
	const step = 5 * time.Minute
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	deployAt := start.Add(30 * time.Hour)
	end := start.Add(40 * time.Hour)

	res := DetectionDelayResult{}
	for _, rerun := range []time.Duration{30 * time.Minute, 2 * time.Hour, 6 * time.Hour} {
		// Fresh simulation per interval so merger state is independent.
		root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
			{Name: "handler", SelfWeight: 30, Children: []*fleet.Node{
				{Name: "victim", SelfWeight: 9},
			}},
			{Name: "other", SelfWeight: 60},
		}}
		tree, err := fleet.NewTree(root)
		if err != nil {
			panic(err)
		}
		svc, err := fleet.NewService(fleet.Config{
			Name: "svc", Servers: 20000, Step: step,
			SamplesPerStep: 3e5, BaseCPU: 0.5, CPUNoise: 0.05,
			BaseThroughput: 1e5, Tree: tree, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		svc.ScheduleChange(fleet.ScheduledChange{
			At:     deployAt,
			Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("victim", 1.25) },
		})
		db := tsdb.New(step)
		if err := svc.Run(db, nil, start, end); err != nil {
			panic(err)
		}
		cfg := core.Config{
			Threshold:     0.005,
			RerunInterval: rerun,
			Windows: timeseries.WindowConfig{
				Historic: 20 * time.Hour,
				Analysis: 4 * time.Hour,
				Extended: time.Hour,
			},
		}
		pipe, err := core.NewPipeline(cfg, db, nil, fleet.SamplesOf(svc, 1e6))
		if err != nil {
			panic(err)
		}
		mon, err := core.NewMonitor(pipe, rerun)
		if err != nil {
			panic(err)
		}
		mon.Watch("svc")
		point := DelayPoint{RerunInterval: rerun, Delay: -1}
		for scan := start.Add(cfg.Windows.Total()); !scan.After(end); scan = scan.Add(rerun) {
			if err := mon.ScanOnce(scan); err != nil {
				panic(err)
			}
			point.Scans++
			if len(mon.Reports()) > 0 && point.Delay < 0 {
				point.Delay = scan.Sub(deployAt)
			}
		}
		res.Points = append(res.Points, point)
	}
	return res
}
