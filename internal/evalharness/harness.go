package evalharness

import (
	"fmt"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// suiteEpoch anchors simulated time; a fixed epoch keeps runs bit-for-bit
// reproducible for a given seed.
var suiteEpoch = time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC)

// Suite is one complete harness run: the labeled scenarios, the pipeline
// configuration under test, and the simulated-time parameters.
type Suite struct {
	Name      string
	Scenarios []Scenario
	Config    core.Config
	// Step is the metric resolution; Duration the simulated span; Interval
	// the monitor's re-run interval.
	Step     time.Duration
	Duration time.Duration
	Interval time.Duration
	// SampleBudget is the expected stack-sample count per sample-provider
	// query (attribution and cost-shift analysis use ratios, so any
	// positive volume works).
	SampleBudget float64
	// TopK is the root-cause rank within which the true change must appear
	// (the paper evaluates top-3).
	TopK int
	// FleetScaleMagnitude is the magnitude floor for the headline
	// fleet-scale recall figure (gate default: 0.05% gCPU).
	FleetScaleMagnitude float64
	// FloorCurve, when true, also sweeps the analytic detection floor
	// (magnitude x fleet size) into the report.
	FloorCurve bool
}

// DefaultSuite returns the standard accuracy suite: DefaultScenarios under
// the harness's reference configuration (1-minute steps, Figure 4 windows
// compressed to 400/200/60 minutes, hourly re-scans).
func DefaultSuite() *Suite {
	return &Suite{
		Name:      "default",
		Scenarios: DefaultScenarios(),
		Config: core.Config{
			// Absolute gCPU threshold below the smallest injected
			// magnitude; service-level metrics get scaled thresholds so
			// their noise cannot mask the subroutine-level evaluation.
			Threshold: 1e-5,
			MetricThresholds: map[string]float64{
				"cpu":        0.02,
				"throughput": 0.08,
			},
			MetricRelative: map[string]bool{"throughput": true},
			Windows: timeseries.WindowConfig{
				Historic: 400 * time.Minute,
				Analysis: 200 * time.Minute,
				Extended: 60 * time.Minute,
			},
			// The mix-shift scenarios carry stratified telemetry; the
			// pop-shift stage must reclassify their aggregate movements.
			PopShift: core.PopShiftConfig{Enabled: true},
		},
		Step:                time.Minute,
		Duration:            1100 * time.Minute,
		Interval:            time.Hour,
		SampleBudget:        2e6,
		TopK:                3,
		FleetScaleMagnitude: 0.0005,
		FloorCurve:          true,
	}
}

// Run materializes every scenario into one store, drives the monitor over
// the simulated span, and scores the emitted reports against the labels.
func (s *Suite) Run(seed int64) (*Report, error) {
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("evalharness: suite has no scenarios")
	}
	start := suiteEpoch
	end := start.Add(s.Duration)
	db := tsdb.New(s.Step)
	var log changelog.Log

	services := make(map[string]*fleet.Service, len(s.Scenarios))
	scenarios := make(map[string]Scenario, len(s.Scenarios))
	var labels []*labelState
	var order []string
	for i, sc := range s.Scenarios {
		env := Env{DB: db, Log: &log, Start: start, End: end, Step: s.Step,
			Seed: seed + int64(i)*7919}
		svc, ls, err := sc.Build(env)
		if err != nil {
			return nil, fmt.Errorf("evalharness: building %s: %w", sc.Name, err)
		}
		name := svc.Name()
		if _, dup := services[name]; dup {
			return nil, fmt.Errorf("evalharness: duplicate service %q", name)
		}
		if err := svc.Run(db, &log, start, end); err != nil {
			return nil, fmt.Errorf("evalharness: simulating %s: %w", sc.Name, err)
		}
		services[name] = svc
		scenarios[name] = sc
		order = append(order, name)
		for i := range ls {
			labels = append(labels, &labelState{Label: ls[i]})
		}
	}

	pipeline, err := core.NewPipeline(s.Config, db, &log,
		fleet.SamplesByName(services, s.SampleBudget))
	if err != nil {
		return nil, err
	}
	// Commit domains make the injected refactoring commits usable as
	// cost-shift domains, like the production deployment (paper §5.4).
	pipeline.AddDomainDetector(core.CommitDomains{Log: &log})
	monitor, err := core.NewMonitor(pipeline, s.Interval)
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		monitor.Watch(name)
	}
	warmup := start.Add(s.Config.Windows.Total())
	if err := monitor.RunVirtual(warmup, end); err != nil {
		return nil, err
	}

	funnel, scans := monitor.Stats()
	report := s.score(seed, monitor.Reports(), scenarios, labels)
	report.Funnel = funnel
	report.Scans = scans
	if s.FloorCurve {
		report.FloorCurve = FloorCurve(s.Config, seed, nil, nil, 3)
	}
	return report, nil
}
