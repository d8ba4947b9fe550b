package stats

import "math"

// Pearson returns the Pearson correlation coefficient between a and b,
// computed over the first min(len(a), len(b)) points. It returns 0 when
// either series is constant or too short.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return 0
	}
	ma := Mean(a[:n])
	mb := Mean(b[:n])
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da := a[i] - ma
		db := b[i] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Autocorrelation returns the autocorrelation of xs at the given lag, or 0
// if the series is too short or constant.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// DominantSeasonLag scans lags in [minLag, maxLag] and returns the lag with
// the highest autocorrelation along with that correlation. It returns
// (0, 0) when no lag reaches any positive correlation. The seasonality
// detector (paper §5.2.3) treats the series as seasonal when the returned
// correlation is significant.
func DominantSeasonLag(xs []float64, minLag, maxLag int) (lag int, corr float64) {
	if minLag < 1 {
		minLag = 1
	}
	if maxLag >= len(xs)/2 {
		maxLag = len(xs)/2 - 1
	}
	if minLag > maxLag {
		return 0, 0
	}
	// Autocorrelation(xs, l) for every lag, with the mean, the centred
	// series and the denominator computed once instead of once per lag:
	// the same operations in the same order, so the same bits.
	m := Mean(xs)
	centred := make([]float64, len(xs))
	var den float64
	for i, x := range xs {
		d := x - m
		centred[i] = d
		den += d * d
	}
	if den == 0 {
		return 0, 0
	}
	best, bestLag := 0.0, 0
	pick := func(l int, num float64) {
		if c := num / den; c > best {
			best, bestLag = c, l
		}
	}
	l := minLag
	// Eight lags per pass over the series, two indices per step: eight
	// independent add chains instead of one, and each loaded value feeds
	// up to sixteen products. Every lag still sums its own products in the
	// one-lag loop's index order, so it gets the same bits. The pass
	// covers the indices all eight lags share; the rest follow in order.
	for ; l+7 <= maxLag; l += 8 {
		m := len(centred) - l - 7
		shifted := centred[l:]
		var n0, n1, n2, n3, n4, n5, n6, n7 float64
		i := 0
		for ; i+1 < m; i += 2 {
			h := centred[i : i+2 : i+2]
			w := shifted[i : i+9 : i+9]
			d0, d1 := h[0], h[1]
			n0 += d0 * w[0]
			n1 += d0 * w[1]
			n2 += d0 * w[2]
			n3 += d0 * w[3]
			n4 += d0 * w[4]
			n5 += d0 * w[5]
			n6 += d0 * w[6]
			n7 += d0 * w[7]
			n0 += d1 * w[1]
			n1 += d1 * w[2]
			n2 += d1 * w[3]
			n3 += d1 * w[4]
			n4 += d1 * w[5]
			n5 += d1 * w[6]
			n6 += d1 * w[7]
			n7 += d1 * w[8]
		}
		nums := [8]float64{n0, n1, n2, n3, n4, n5, n6, n7}
		for k := range nums {
			// Lag l+k's sum runs to index len(centred)-l-k-1.
			for j := i; j < m+7-k; j++ {
				nums[k] += centred[j] * shifted[j+k]
			}
			pick(l+k, nums[k])
		}
	}
	for ; l <= maxLag; l++ {
		var num float64
		head := centred[:len(centred)-l]
		shifted := centred[l:][:len(head)]
		for i, d := range head {
			num += d * shifted[i]
		}
		pick(l, num)
	}
	return bestLag, best
}

// AutocorrelationSignificance returns the approximate two-sided 95%
// significance bound for autocorrelation of a white-noise series of length
// n: 1.96/sqrt(n). Correlations beyond the bound indicate structure.
func AutocorrelationSignificance(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.96 / math.Sqrt(float64(n))
}
