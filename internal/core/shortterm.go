package core

import (
	"time"

	"fbdetect/internal/changepoint"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// DetectShortTerm runs the short-term path of Figure 6 on one metric's
// windows: change-point detection on the analysis window, validated with
// the likelihood-ratio test. It returns nil when no change point is found.
// Downstream filters (went-away, seasonality, threshold) are applied by
// the pipeline; this stage only produces the candidate.
func DetectShortTerm(cfg Config, metric tsdb.MetricID, ws timeseries.Windows, scanTime time.Time) *Regression {
	var buf []float64
	r, _ := detectShortTerm(cfg, metric, ws, scanTime, &buf)
	return r
}

// detectShortTerm is DetectShortTerm over a caller-kept working array
// (see changepoint.DetectScratch). It reads ws.Analysis only; the
// candidate it returns carries all of ws. screened reports a window that
// changepoint.DetectIncrease let go after its CUSUM pass.
func detectShortTerm(cfg Config, metric tsdb.MetricID, ws timeseries.Windows, scanTime time.Time, buf *[]float64) (r *Regression, screened bool) {
	analysis := ws.Analysis
	if analysis.Len() < 8 {
		return nil, false
	}
	// Only increases are regressions (paper §5.2: "an increase in a
	// metric's value means a regression"); decreases are improvements.
	res, screened := changepoint.DetectIncrease(analysis.Values, changepoint.Options{
		Alpha: cfg.Alpha,
	}, buf)
	if !res.Found || res.Delta <= 0 {
		return nil, screened
	}
	r = NewRegressionRecord(metric)
	r.Path = ShortTerm
	r.ChangePoint = res.Index
	r.ChangePointTime = analysis.TimeAt(res.Index)
	r.Before = res.MeanBefore
	r.After = res.MeanAfter
	r.Delta = res.Delta
	if res.MeanBefore != 0 {
		r.Relative = res.Delta / res.MeanBefore
	}
	r.PValue = res.PValue
	r.Windows = ws
	return r, false
}

// PassesThreshold applies the Table 1 threshold: absolute configs compare
// Delta, relative configs compare Relative. Per-metric-name overrides in
// MetricThresholds take precedence over the config-wide setting.
func PassesThreshold(cfg Config, r *Regression) bool {
	threshold, relative := ThresholdFor(cfg, r.Name)
	if relative {
		return r.Relative >= threshold
	}
	return r.Delta >= threshold
}

// ThresholdFor resolves the effective (threshold, relative) pair for a
// metric name.
func ThresholdFor(cfg Config, metricName string) (float64, bool) {
	if t, ok := cfg.MetricThresholds[metricName]; ok {
		return t, cfg.MetricRelative[metricName]
	}
	return cfg.Threshold, cfg.RelativeThreshold
}
