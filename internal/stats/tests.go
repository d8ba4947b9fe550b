package stats

import (
	"math"
	"sort"
)

// TTestResult holds the outcome of a two-sample t-test.
type TTestResult struct {
	T  float64 // the t statistic
	DF float64 // effective degrees of freedom
	P  float64 // two-sided p-value (normal approximation of the t tail)
}

// WelchTTest compares the means of two samples without assuming equal
// variances (Welch's t-test). It returns a zero-valued result if either
// sample has fewer than two observations.
func WelchTTest(a, b []float64) TTestResult {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{P: 1}
	}
	ma, va := MeanVariance(a)
	mb, vb := MeanVariance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		if ma == mb {
			return TTestResult{P: 1}
		}
		return TTestResult{T: math.Inf(1), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / se
	// Welch-Satterthwaite degrees of freedom.
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	// For the large windows FBDetect uses, the t distribution is
	// indistinguishable from normal; use the normal tail for the p-value.
	p := 2 * (1 - NormalCDF(math.Abs(t), 0, 1))
	return TTestResult{T: t, DF: df, P: p}
}

// LikelihoodRatioResult holds the outcome of the change-point
// likelihood-ratio test of paper §5.2.1.
type LikelihoodRatioResult struct {
	Statistic float64 // -2 log(likelihood ratio)
	P         float64 // p-value against chi-squared with 2 dof
	Reject    bool    // true if H0 (single mean) is rejected
}

// LikelihoodRatioTest tests H0 "the series has a single mean" against H1
// "the series has one change point at index t, with different means before
// and after" under a Gaussian model, using the chi-squared approximation of
// the -2 log likelihood ratio with 2 degrees of freedom (one extra mean and
// the change-point location). alpha is the significance level (the paper
// uses 0.01).
func LikelihoodRatioTest(xs []float64, t int, alpha float64) LikelihoodRatioResult {
	n := len(xs)
	if t <= 0 || t >= n || n < 4 {
		return LikelihoodRatioResult{P: 1}
	}
	// H0: one segment (its variance); H1: two segments sharing a pooled
	// variance around their own means. The three Welford passes run as one
	// loop with a chain each — the segment chains side by side with the
	// whole-series one, which is what MeanVariance(xs), (xs[:t]) and
	// (xs[t:]) compute, step for step.
	var m0, s0, m1, m2 float64
	for i, x := range xs {
		d := x - m0
		m0 += d / float64(i+1)
		s0 += d * (x - m0)
		if i < t {
			m1 += (x - m1) / float64(i+1)
		} else {
			m2 += (x - m2) / float64(i-t+1)
		}
	}
	v0 := s0 / float64(n-1)
	ss := 0.0
	for i, x := range xs {
		var d float64
		if i < t {
			d = x - m1
		} else {
			d = x - m2
		}
		ss += d * d
	}
	v1 := ss / float64(n)
	v0 = v0 * float64(n-1) / float64(n) // convert to MLE variance
	if v1 <= 0 || v0 <= 0 {
		// Degenerate (constant) segments: reject only if the two means differ.
		if m1 != m2 {
			return LikelihoodRatioResult{Statistic: math.Inf(1), P: 0, Reject: true}
		}
		return LikelihoodRatioResult{P: 1}
	}
	stat := float64(n) * math.Log(v0/v1)
	if stat < 0 {
		stat = 0
	}
	p := ChiSquaredSurvival(stat, 2)
	return LikelihoodRatioResult{Statistic: stat, P: p, Reject: p < alpha}
}

// TrendDirection classifies the monotonic trend found by the Mann-Kendall
// test.
type TrendDirection int

// Trend directions returned by MannKendall.
const (
	TrendNone TrendDirection = iota
	TrendIncreasing
	TrendDecreasing
)

func (d TrendDirection) String() string {
	switch d {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "none"
	}
}

// MannKendallResult holds the outcome of the Mann-Kendall trend test.
type MannKendallResult struct {
	S     float64 // the Mann-Kendall S statistic
	Z     float64 // normalized statistic
	P     float64 // two-sided p-value
	Trend TrendDirection
}

// MannKendall performs the non-parametric Mann-Kendall test for a monotonic
// trend at significance level alpha. Ties are handled with the standard
// variance correction.
//
// S, the sum of sign(xs[j]−xs[i]) over pairs i < j, is counted in
// O(n log n) as pairs − tied pairs − 2·inversions, the inversions by a
// merge sort; S is an integer, so that is the pairwise sum exactly. The
// tie groups are the runs of equal values in the sorted copy. An input
// holding a NaN, which compares neither above nor below anything, is
// summed pair by pair.
func MannKendall(xs []float64, alpha float64) MannKendallResult {
	n := len(xs)
	if n < 4 {
		return MannKendallResult{P: 1, Trend: TrendNone}
	}
	buf := make([]float64, 2*n)
	sorted, tmp := buf[:n], buf[n:]
	copy(sorted, xs)
	hasNaN := false
	for _, x := range xs {
		if x != x {
			hasNaN = true
			break
		}
	}
	var s float64
	inversions := 0
	if hasNaN {
		s = pairwiseS(xs)
		sort.Float64s(sorted)
	} else {
		inversions = sortCountInversions(sorted, tmp)
	}
	// Variance with tie correction; every term is an integer, so the sum
	// does not depend on the order the groups are met in.
	var tiedPairs int
	nf := float64(n)
	v := nf * (nf - 1) * (2*nf + 5)
	for i := 0; i < n; {
		j := i + 1
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		if c := j - i; c > 1 {
			tiedPairs += c * (c - 1) / 2
			cf := float64(c)
			v -= cf * (cf - 1) * (2*cf + 5)
		}
		i = j
	}
	if !hasNaN {
		s = float64(n*(n-1)/2 - tiedPairs - 2*inversions)
	}
	v /= 18
	var z float64
	switch {
	case v == 0:
		z = 0
	case s > 0:
		z = (s - 1) / math.Sqrt(v)
	case s < 0:
		z = (s + 1) / math.Sqrt(v)
	}
	p := 2 * (1 - NormalCDF(math.Abs(z), 0, 1))
	res := MannKendallResult{S: s, Z: z, P: p, Trend: TrendNone}
	if p < alpha {
		if z > 0 {
			res.Trend = TrendIncreasing
		} else if z < 0 {
			res.Trend = TrendDecreasing
		}
	}
	return res
}

// pairwiseS is the Mann-Kendall S summed over every pair.
func pairwiseS(xs []float64) float64 {
	s := 0.0
	for i := 0; i < len(xs)-1; i++ {
		for j := i + 1; j < len(xs); j++ {
			switch {
			case xs[j] > xs[i]:
				s++
			case xs[j] < xs[i]:
				s--
			}
		}
	}
	return s
}

// sortCountInversions sorts xs (no NaNs) ascending by
// a stable merge sort through tmp (len(tmp) >= len(xs)) and returns the
// number of pairs i < j with xs[i] > xs[j] — equal values are not
// inversions.
func sortCountInversions(xs, tmp []float64) int {
	n := len(xs)
	inv := 0
	// Insertion-sort runs of 16: each shift past a larger value is one
	// inversion.
	const run = 16
	for lo := 0; lo < n; lo += run {
		hi := min(lo+run, n)
		for i := lo + 1; i < hi; i++ {
			x := xs[i]
			j := i
			for j > lo && xs[j-1] > x {
				xs[j] = xs[j-1]
				j--
			}
			inv += i - j
			xs[j] = x
		}
	}
	// Merge: taking from the right half past k left values still
	// pending counts k inversions; ties take the left value first.
	src, dst := xs, tmp[:n]
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j] < src[i] {
					dst[k] = src[j]
					inv += mid - i
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return inv
}
