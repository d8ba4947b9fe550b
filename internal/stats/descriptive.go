// Package stats provides the statistical primitives used by the FBDetect
// regression-detection pipeline: descriptive statistics, distribution
// functions, hypothesis tests (likelihood-ratio, Mann-Kendall, t-tests),
// robust estimators (median absolute deviation, Theil-Sen slope), and
// correlation measures.
//
// All functions operate on []float64 and ignore NaN handling unless stated
// otherwise; callers are expected to sanitize inputs. Functions that cannot
// produce a meaningful result for their input (for example, the variance of
// fewer than two samples) return 0 rather than panicking, matching how the
// pipeline treats empty windows.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MeanVariance returns both the mean and the unbiased sample variance in a
// single pass using Welford's algorithm, which is numerically stable for the
// near-constant series common in subroutine-level gCPU data.
func MeanVariance(xs []float64) (mean, variance float64) {
	var m, m2 float64
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	if len(xs) < 2 {
		return m, 0
	}
	return m, m2 / float64(len(xs)-1)
}

// Median returns the median of xs, or 0 if xs is empty. The input is not
// modified.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks, or 0 if xs is empty. The input is not
// modified: the order statistics are selected from a copy, not sorted out
// of it.
func Percentile(xs []float64, p float64) float64 {
	var buf []float64
	return PercentileScratch(xs, p, &buf)
}

// PercentileScratch is Percentile selecting from a copy in *buf, which is
// grown to len(xs) on first need and reused by every later call. The
// result does not reference it.
func PercentileScratch(xs []float64, p float64, buf *[]float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	*buf = append((*buf)[:0], xs...)
	return selectPercentile(*buf, p)
}

// PercentileSorted is like Percentile but requires xs to be sorted ascending
// and performs no copy. It is used in hot loops over pre-sorted windows.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	if hi >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MAD returns the median absolute deviation of xs around its median.
// Multiplying by NormalityConstant yields a robust estimate of the standard
// deviation under normality.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	devs := make([]float64, len(xs))
	copy(devs, xs)
	med := selectPercentile(devs, 50)
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return selectPercentile(devs, 50)
}

// NormalityConstant scales MAD to a consistent estimator of the standard
// deviation for normally distributed data (paper §5.2.2).
const NormalityConstant = 1.4826

// Min returns the minimum of xs, or 0 if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
