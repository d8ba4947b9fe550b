package stats

import "math"

// TheilSen estimates the slope and intercept of a linear trend through
// (i, xs[i]) using Theil-Sen's estimator: the slope is the median of
// pairwise slopes and the intercept is median(y) - slope*median(x). It is
// robust to up to ~29% outliers, which matters for the spiky production
// series the went-away detector examines (paper §5.2.2).
//
// For inputs larger than theilSenExactLimit the estimator subsamples pairs
// deterministically to bound the O(n^2) pair enumeration.
func TheilSen(xs []float64) (slope, intercept float64) {
	var buf []float64
	return TheilSenScratch(xs, &buf)
}

// TheilSenScratch is TheilSen with its pairwise slopes, and then the copy
// the intercept's median selects from, in *buf: grown on first need and
// reused by every later call. The result does not reference it.
func TheilSenScratch(xs []float64, buf *[]float64) (slope, intercept float64) {
	n := len(xs)
	if n < 2 {
		return 0, Mean(xs)
	}
	// For large inputs, deterministically subsample evenly spaced indices
	// down to the limit; the estimator then runs exactly on the subsample
	// (bounding work at limit^2/2 pairs) while preserving the trend's
	// time structure.
	var idxArr [theilSenExactLimit]int // on the stack: no allocation per fit
	idxs := idxArr[:0]
	if n <= theilSenExactLimit {
		for i := 0; i < n; i++ {
			idxs = append(idxs, i)
		}
	} else {
		stride := float64(n-1) / float64(theilSenExactLimit-1)
		for k := 0; k < theilSenExactLimit; k++ {
			idxs = append(idxs, int(float64(k)*stride))
		}
	}
	m := len(idxs)
	slopes := (*buf)[:0]
	if cap(slopes) < m*(m-1)/2 {
		slopes = make([]float64, 0, m*(m-1)/2)
	}
	for a := 0; a < m-1; a++ {
		for bi := a + 1; bi < m; bi++ {
			i, j := idxs[a], idxs[bi]
			if j == i {
				continue
			}
			slopes = append(slopes, (xs[j]-xs[i])/float64(j-i))
		}
	}
	*buf = slopes
	// Only the median slope is read, so it is selected rather than sorted
	// out of the m(m-1)/2 slopes (n >= 2 leaves at least one).
	slope = selectPercentile(slopes, 50)
	// intercept via medians for robustness; the median of the indices
	// 0..n-1 is (n-1)/2.
	intercept = PercentileScratch(xs, 50, buf) - slope*(float64(n-1)/2)
	return slope, intercept
}

// theilSenExactLimit is the series length above which TheilSen subsamples
// pairs.
const theilSenExactLimit = 512

// LinearFit fits y = a + b*x over (i, xs[i]) by least squares and returns
// the intercept a, slope b, and the root mean square error of the fit. The
// long-term detector uses the RMSE to decide whether a regression is a
// gradual drift (paper §5.3).
func LinearFit(xs []float64) (intercept, slope, rmse float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range xs {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	nf := float64(n)
	den := nf*sxx - sx*sx
	if den == 0 {
		return Mean(xs), 0, 0
	}
	slope = (nf*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / nf
	var ss float64
	for i, y := range xs {
		d := y - (intercept + slope*float64(i))
		ss += d * d
	}
	rmse = math.Sqrt(ss / nf)
	return intercept, slope, rmse
}

// MinMaxNormalize returns xs scaled into [0, 1]. A constant series maps to
// all zeros.
func MinMaxNormalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}
