package stl

import (
	"fmt"

	"fbdetect/internal/stats"
)

// Decomposition holds the additive STL decomposition of a series:
// value[i] = Seasonal[i] + Trend[i] + Residual[i].
type Decomposition struct {
	Seasonal []float64
	Trend    []float64
	Residual []float64
	Period   int
}

// Deseasonalized returns Trend + Residual, the series the seasonality
// detector re-tests for a regression after removing seasonality.
func (d *Decomposition) Deseasonalized() []float64 {
	out := make([]float64, len(d.Trend))
	for i := range out {
		out[i] = d.Trend[i] + d.Residual[i]
	}
	return out
}

// Options configures Decompose.
type Options struct {
	// InnerIterations is the number of inner loop passes (default 2).
	InnerIterations int
	// SeasonalSpan is the Loess span for smoothing each cycle-subseries,
	// in cycles (default 7).
	SeasonalSpan int
	// TrendSpan is the Loess span for the trend, in points; 0 derives it
	// from the period per the STL recommendation.
	TrendSpan int
}

func (o Options) withDefaults(period int) Options {
	if o.InnerIterations <= 0 {
		o.InnerIterations = 2
	}
	if o.SeasonalSpan <= 0 {
		o.SeasonalSpan = 7
	}
	if o.TrendSpan <= 0 {
		// Smallest odd integer >= 1.5*period/(1-1.5/seasonalSpan).
		t := int(1.5*float64(period)/(1-1.5/float64(o.SeasonalSpan))) + 1
		if t%2 == 0 {
			t++
		}
		o.TrendSpan = t
	}
	return o
}

// Decompose performs an STL-style additive decomposition of ys with the
// given seasonal period. It requires at least two full periods of data.
func Decompose(ys []float64, period int, opts Options) (*Decomposition, error) {
	n := len(ys)
	if period < 2 {
		return nil, fmt.Errorf("stl: period must be >= 2, got %d", period)
	}
	if n < 2*period {
		return nil, fmt.Errorf("stl: need >= %d points for period %d, got %d", 2*period, period, n)
	}
	opts = opts.withDefaults(period)

	seasonal := make([]float64, n)
	trend := make([]float64, n)
	detrended := make([]float64, n)

	// Scratch buffers shared across phases and iterations: cycle-subseries
	// in/out, the double moving-average low-pass, and its prefix sums. One
	// decomposition performs 2·InnerIterations·period Loess smooths; without
	// reuse each would allocate.
	cycles := (n + period - 1) / period
	sub := make([]float64, cycles)
	smoothed := make([]float64, cycles)
	lowPass := make([]float64, n)
	maTmp := make([]float64, n)
	maPrefix := make([]float64, n+1)

	// Loess fits are looked up once per effective span: subseries lengths
	// differ by at most one point across phases, so the whole decomposition
	// needs at most three distinct geometries (two seasonal, one trend).
	fits := map[int]*loessFit{}
	fitSpan := func(span, n int) *loessFit {
		if span > n {
			span = n
		}
		if f, ok := fits[span]; ok {
			return f
		}
		f := fitFor(span)
		fits[span] = f
		return f
	}

	for iter := 0; iter < opts.InnerIterations; iter++ {
		// Step 1: detrend.
		for i := range ys {
			detrended[i] = ys[i] - trend[i]
		}
		// Step 2: smooth each cycle-subseries (all points at the same
		// phase) with Loess across cycles.
		for phase := 0; phase < period; phase++ {
			m := 0
			for i := phase; i < n; i += period {
				sub[m] = detrended[i]
				m++
			}
			if m < 2 || opts.SeasonalSpan < 2 {
				copy(smoothed[:m], sub[:m])
			} else {
				fitSpan(opts.SeasonalSpan, m).into(smoothed[:m], sub[:m])
			}
			for k := 0; k < m; k++ {
				seasonal[phase+k*period] = smoothed[k]
			}
		}
		// Step 3: center the seasonal component by removing its low-pass
		// trend so seasonality does not absorb level shifts.
		movingAverageInto(maTmp, maPrefix, seasonal, period)
		movingAverageInto(lowPass, maPrefix, maTmp, period)
		for i := range seasonal {
			seasonal[i] -= lowPass[i]
		}
		// Step 4: re-estimate the trend from the deseasonalized series.
		for i := range ys {
			detrended[i] = ys[i] - seasonal[i]
		}
		if opts.TrendSpan < 2 {
			copy(trend, detrended)
		} else {
			fitSpan(opts.TrendSpan, n).into(trend, detrended)
		}
	}

	residual := make([]float64, n)
	for i := range ys {
		residual[i] = ys[i] - seasonal[i] - trend[i]
	}
	return &Decomposition{Seasonal: seasonal, Trend: trend, Residual: residual, Period: period}, nil
}

// DetectPeriod searches for a dominant seasonal period in ys between minLag
// and maxLag using autocorrelation. It returns (0, false) if no lag's
// autocorrelation exceeds the significance bound scaled by strength (a
// multiplier >= 1; use 2-3 to demand clear seasonality, as FBDetect's
// seasonality detector does before running STL).
//
// The series is detrended with a wide Loess first: level shifts and drifts
// inflate raw autocorrelation at every lag, and without detrending a step
// regression itself would look "seasonal".
func DetectPeriod(ys []float64, minLag, maxLag int, strength float64) (int, bool) {
	span := len(ys) / 4
	if span < 8 {
		span = 8
	}
	trend := Loess(ys, span)
	detrended := make([]float64, len(ys))
	for i := range ys {
		detrended[i] = ys[i] - trend[i]
	}
	lag, corr := stats.DominantSeasonLag(detrended, minLag, maxLag)
	if lag == 0 {
		return 0, false
	}
	bound := stats.AutocorrelationSignificance(len(ys)) * strength
	if corr < bound {
		return 0, false
	}
	return lag, true
}
