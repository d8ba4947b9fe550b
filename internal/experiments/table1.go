package experiments

import (
	"fmt"
	"time"

	"fbdetect"
	"fbdetect/internal/core"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// Table1Spec is one row of the paper's Table 1: its preset configuration
// (fbdetect.Presets) and the metric baseline the scenario runs at.
type Table1Spec struct {
	fbdetect.Config
	Baseline float64
}

// table1Baselines are the scenario baselines, in Presets' row order:
// gCPU workloads run at a subroutine baseline well above their threshold;
// CT rows monitor relative series at baseline 1.
var table1Baselines = []float64{0.30, 0.001, 0.05, 0.005, 0.01, 0.01, 0.02, 0.02, 0.05, 1, 1, 1}

// Table1Specs returns the twelve rows of Table 1 with the scenario
// baselines used for reproduction.
func Table1Specs() []Table1Spec {
	presets := fbdetect.Presets()
	specs := make([]Table1Spec, len(presets))
	for i, c := range presets {
		specs[i] = Table1Spec{Config: c, Baseline: table1Baselines[i]}
	}
	return specs
}

// Table1Row is the reproduction outcome for one configuration.
type Table1Row struct {
	Spec          Table1Spec
	Injected      float64 // injected regression (1.5x threshold)
	Detected      bool
	MeasuredDelta float64
	FalsePositive bool // whether the control run (no regression) reported
}

// Table1Result holds all rows.
type Table1Result struct{ Rows []Table1Row }

func (r Table1Result) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		unit := "abs"
		if row.Spec.RelativeThreshold {
			unit = "rel"
		}
		measured := "-"
		if row.Detected {
			if row.Spec.RelativeThreshold {
				measured = fmtPct(row.MeasuredDelta / row.Spec.Baseline)
			} else {
				measured = fmtPct(row.MeasuredDelta)
			}
		}
		rows = append(rows, []string{
			row.Spec.Name,
			fmtPct(row.Spec.Threshold) + " " + unit,
			fmtPct(row.Injected),
			fmt.Sprintf("%v", row.Detected),
			measured,
			fmt.Sprintf("%v", row.FalsePositive),
		})
	}
	return "Table 1: per-workload configurations (injected = 1.5x threshold)\n" +
		table([]string{"workload", "threshold", "injected", "detected", "measured", "control FP"}, rows)
}

// RunTable1 runs every Table 1 configuration against a synthetic workload
// carrying a regression at 1.5x the configured threshold, plus a control
// run without a regression. Windows are compressed so each series has
// ~600-1500 points while keeping the historic/analysis/extended
// proportions; per-point noise is set so the regression is ~4 sigma,
// modeling the sample volumes each row's re-run interval accumulates.
func RunTable1(seed int64) Table1Result {
	res := Table1Result{}
	for i, spec := range Table1Specs() {
		row := runTable1Row(seed+int64(i)*97, spec)
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runTable1Row(seed int64, spec Table1Spec) Table1Row {
	rng := newRng(seed)
	// Compress windows to a manageable number of points.
	w := spec.Windows
	step := w.Total() / 1000
	if step < time.Minute {
		step = time.Minute
	}
	histN := int(w.Historic / step)
	anaN := int(w.Analysis / step)
	extN := int(w.Extended / step)
	if anaN < 40 {
		// Keep the analysis window statistically meaningful after
		// compression.
		anaN = 40
	}
	if extN == 0 && w.Extended > 0 {
		extN = 20
	}

	injected := 1.5 * spec.Threshold
	if spec.RelativeThreshold {
		injected *= spec.Baseline // convert to an absolute shift
	}
	noise := injected / 4

	gen := func(withRegression bool) []float64 {
		n := histN + anaN + extN
		cp := histN + anaN/2
		out := make([]float64, n)
		for i := range out {
			mu := spec.Baseline
			if withRegression && i >= cp {
				mu += injected
			}
			v := mu + rng.NormFloat64()*noise
			if v < 0 {
				v = 0
			}
			out[i] = v
		}
		return out
	}

	cfg := core.Config{
		Name:              spec.Name,
		Threshold:         spec.Threshold,
		RelativeThreshold: spec.RelativeThreshold,
		Windows: timeseries.WindowConfig{
			Historic: time.Duration(histN) * step,
			Analysis: time.Duration(anaN) * step,
			Extended: time.Duration(extN) * step,
		},
	}.WithDefaults()

	detect := func(values []float64) (bool, float64) {
		start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
		s := timeseries.New(start, step, values)
		ws, err := cfg.Windows.Cut(s, s.End())
		if err != nil {
			return false, 0
		}
		r := core.DetectShortTerm(cfg, tsdb.ID("svc", "sub", "metric"), ws, s.End())
		if r == nil {
			return false, 0
		}
		if !core.CheckWentAway(cfg.WentAway, r).Keep {
			return false, 0
		}
		if !core.CheckSeasonality(cfg.Seasonality, r).Keep {
			return false, 0
		}
		if !core.PassesThreshold(cfg, r) {
			return false, 0
		}
		return true, r.Delta
	}

	row := Table1Row{Spec: spec, Injected: injected}
	row.Detected, row.MeasuredDelta = detect(gen(true))
	fp, _ := detect(gen(false))
	row.FalsePositive = fp
	return row
}
