package core

import (
	"fbdetect/internal/stats"
	"fbdetect/internal/stl"
	"fbdetect/internal/timeseries"
)

// The seasonality and long-term detectors both start from the same
// expensive computation: detect a seasonal period over the full window and,
// if seasonal, run an STL decomposition (O(n·span) Loess passes). scanMetric
// computes it at most once per metric per scan and hands the result to both;
// across scans the detector checkpoint (checkpoint.go) is the only memo.

// stlResult carries everything the two detectors derive from one full
// window's decomposition. It is immutable after construction; the slices
// are shared and must be treated as read-only.
type stlResult struct {
	// Period detection (always set).
	period   int
	seasonal bool
	// Decomposition, set when the series is seasonal with enough data and
	// STL succeeded.
	decomp *stl.Decomposition
	des    []float64 // decomp.Deseasonalized(), computed once
	resSD  float64   // stats.StdDev(decomp.Residual)
	// Long-term fallback trend (wide Loess), set at construction when the
	// pipeline runs the long-term path and no decomposition trend exists.
	loessTrend []float64
}

// trend returns the series trend: the STL trend when decomposed, otherwise
// the Loess fallback (nil when neither was computed).
func (r *stlResult) trend() []float64 {
	if r.decomp != nil {
		return r.decomp.Trend
	}
	return r.loessTrend
}

// minSeasonalPeriod and maxSeasonalPeriod bound the autocorrelation search
// for a seasonal lag, in points.
const minSeasonalPeriod, maxSeasonalPeriod = 4, 400

// computeSTL runs the shared decomposition work for one full window:
// period detection, STL decomposition when seasonal, and — when needTrend
// is set (the pipeline's long-term path is enabled) and no decomposition
// trend exists — the wide-Loess fallback trend.
func computeSTL(scfg SeasonalityConfig, full *timeseries.Series, needTrend bool) *stlResult {
	n := full.Len()
	res := &stlResult{}
	res.period, res.seasonal = stl.DetectPeriod(full.Values, minSeasonalPeriod, maxSeasonalPeriod, scfg.Strength)
	if res.seasonal && n >= 2*res.period {
		if d, err := stl.Decompose(full.Values, res.period, stl.Options{}); err == nil {
			res.decomp = d
			res.des = d.Deseasonalized()
			res.resSD = stats.StdDev(d.Residual)
		}
	}
	if needTrend && res.decomp == nil && n >= longTermMinPoints {
		span := n / 8
		if span < 5 {
			span = 5
		}
		res.loessTrend = stl.Loess(full.Values, span)
	}
	return res
}

// SeasonalityVerdict explains the seasonality detector's decision.
type SeasonalityVerdict struct {
	// Keep is true when the regression survives deseasonalization.
	Keep bool
	// Seasonal is true when the series shows significant seasonality.
	Seasonal bool
	// Period is the detected seasonal period in points (0 if none).
	Period int
	// ZAnalysis and ZExtended are the deseasonalized z-scores in the two
	// windows.
	ZAnalysis, ZExtended float64
}

// CheckSeasonality runs the seasonality detector of paper §5.2.3 on a
// regression candidate: if the full series is seasonal, decompose with
// STL, remove seasonality, and require the regression to remain visible
// (z-score above threshold) in both the analysis and extended windows.
// Non-seasonal series keep their regressions.
//
// The pipeline's scan path reaches the same verdict from the decomposition
// it shares with the long-term detector; this entry point recomputes the
// decomposition and exists for standalone use.
func CheckSeasonality(cfg SeasonalityConfig, r *Regression) SeasonalityVerdict {
	cfg = cfg.withDefaults()
	return checkSeasonalityWith(cfg, r, computeSTL(cfg, r.Windows.Full(), false))
}

// checkSeasonalityWith applies the seasonality verdict using
// already-computed decomposition results. cfg must be defaulted.
func checkSeasonalityWith(cfg SeasonalityConfig, r *Regression, s *stlResult) SeasonalityVerdict {
	full := r.Windows.Full()
	period, seasonal := s.period, s.seasonal
	if !seasonal || full.Len() < 2*period {
		return SeasonalityVerdict{Keep: true}
	}
	if s.decomp == nil {
		return SeasonalityVerdict{Keep: true, Seasonal: true, Period: period}
	}
	des := s.des
	resSD := s.resSD
	if resSD == 0 {
		return SeasonalityVerdict{Keep: true, Seasonal: true, Period: period}
	}

	// Index of the change point within the full series.
	histLen := r.Windows.Historic.Len()
	cpFull := histLen + r.ChangePoint
	if cpFull <= 0 || cpFull >= len(des) {
		return SeasonalityVerdict{Keep: true, Seasonal: true, Period: period}
	}
	before := stats.Median(des[:cpFull])

	// z-score over the post-change-point part of the analysis window.
	anaEnd := histLen + r.Windows.Analysis.Len()
	zAnalysis := (stats.Median(des[cpFull:anaEnd]) - before) / resSD

	// z-score over the extended window (falls back to the analysis score
	// when there is no extended window).
	zExtended := zAnalysis
	if r.Windows.Extended != nil && r.Windows.Extended.Len() > 0 {
		zExtended = (stats.Median(des[anaEnd:]) - before) / resSD
	}

	keep := zAnalysis >= cfg.ZThreshold && zExtended >= cfg.ZThreshold
	return SeasonalityVerdict{
		Keep: keep, Seasonal: true, Period: period,
		ZAnalysis: zAnalysis, ZExtended: zExtended,
	}
}
