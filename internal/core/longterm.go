package core

import (
	"time"

	"fbdetect/internal/changepoint"
	"fbdetect/internal/stats"
	"fbdetect/internal/stl"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// longTermEdgeFraction is the fraction of a window used to estimate its
// "start" and "end" means in the long-term comparison.
const longTermEdgeFraction = 0.15

// gradualRMSEThreshold is the RMSE bound (on the min-max-normalized trend)
// below which the long-term detector treats the regression as a clean
// linear drift and places the change point at the start of the trend.
const gradualRMSEThreshold = 0.08

// longTermMinPoints is the minimum full-window length the long-term
// detector needs for a meaningful trend.
const longTermMinPoints = 16

// DetectLongTerm runs the long-term path of paper §5.3: STL seasonality
// decomposition first, regression detection on the trend alone, then
// change-point location (linear-fit test for gradual drifts, otherwise the
// normal-loss dynamic-programming split). The long-term path has no
// went-away stage.
//
// The pipeline's scan path reaches the same result from the decomposition
// it shares with the seasonality detector; this entry point recomputes the
// decomposition and exists for standalone use.
func DetectLongTerm(cfg Config, metric tsdb.MetricID, ws timeseries.Windows, scanTime time.Time) *Regression {
	full := ws.Full()
	if full.Len() < longTermMinPoints {
		return nil
	}
	scfg := cfg.Seasonality.withDefaults()
	return detectLongTermWith(cfg, metric, ws, scanTime, computeSTL(scfg, full, true))
}

// detectLongTermWith is DetectLongTerm using already-computed
// decomposition results.
func detectLongTermWith(cfg Config, metric tsdb.MetricID, ws timeseries.Windows, scanTime time.Time, s *stlResult) *Regression {
	full := ws.Full()
	if full.Len() < longTermMinPoints {
		return nil
	}

	// Step 1: seasonality decomposition. Non-seasonal series use a Loess
	// smooth as the trend (precomputed alongside the decomposition).
	trend := s.trend()
	if trend == nil {
		span := full.Len() / 8
		if span < 5 {
			span = 5
		}
		trend = stl.Loess(full.Values, span)
	}

	// Step 2: regression detection on the trend. Baseline is the larger
	// of (start of analysis window, historic window); current is the
	// smaller of (end of analysis window, extended window). Both choices
	// are conservative.
	histLen := ws.Historic.Len()
	anaLen := ws.Analysis.Len()
	anaTrend := trend[histLen : histLen+anaLen]
	histTrend := trend[:histLen]
	extTrend := trend[histLen+anaLen:]

	edge := int(float64(anaLen) * longTermEdgeFraction)
	if edge < 1 {
		edge = 1
	}
	baseline := stats.Mean(anaTrend[:edge])
	if h := stats.Mean(histTrend); h > baseline {
		baseline = h
	}
	current := stats.Mean(anaTrend[anaLen-edge:])
	if len(extTrend) > 0 {
		if e := stats.Mean(extTrend); e < current {
			current = e
		}
	}
	delta := current - baseline
	if delta <= 0 {
		return nil
	}
	_, _, metricName := metric.Parts()
	threshold, relative := ThresholdFor(cfg, metricName)
	if relative {
		if baseline == 0 {
			return nil
		}
		if delta/baseline < threshold {
			return nil
		}
	} else if delta < threshold {
		return nil
	}

	// Step 3: change-point location on the analysis-window trend.
	cp := locateLongTermChangePoint(anaTrend)

	r := NewRegressionRecord(metric)
	r.Path = LongTerm
	r.ChangePoint = cp
	r.ChangePointTime = ws.Analysis.TimeAt(cp)
	r.Before = baseline
	r.After = current
	r.Delta = delta
	if baseline != 0 {
		r.Relative = delta / baseline
	}
	r.Windows = ws
	return r
}

// locateLongTermChangePoint fits a line to the normalized trend; a low
// RMSE means a gradual drift (change point at the start), otherwise the
// normal-loss split locates the step.
func locateLongTermChangePoint(trend []float64) int {
	norm := stats.MinMaxNormalize(trend)
	_, _, rmse := stats.LinearFit(norm)
	if rmse < gradualRMSEThreshold {
		return 0
	}
	cp, _ := changepoint.NormalLossSplit(trend, 2)
	return cp
}
