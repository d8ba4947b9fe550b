package changepoint

import (
	"math"
	"sync/atomic"

	"fbdetect/internal/stats"
)

// DetectIncrease is DetectScratch for a caller that reports increases
// only (Found && Delta > 0). It first bounds, from the CUSUM pass alone,
// the likelihood-ratio statistic any split with a higher mean after it
// could reach. When even that bound cannot pass the test at opts.Alpha,
// the window is screened: it returns screened = true and a Result with
// Found false and PValue 1, having run no EM step and no test. Otherwise
// it returns exactly what DetectScratch returns.
//
// The bound: with S_t the CUSUM partial sum before split t and SST the
// total sum of squares, a split explains SSB(t) = S_t²·n/(t(n−t)) of
// SST, its statistic is n·log(SST/(SST−SSB(t))), and its after-mean
// exceeds its before-mean exactly when S_t < 0. The test rejects only
// above the χ²₂ critical value c, i.e. only when SSB(t) > SST·(1−e^(−c/n)).
// A window whose largest SSB over the splits the test can see, [MinSegment,
// n−MinSegment] with S_t < 0, stays below that with a margin for the
// rounding of both computations is screened. Windows with a zero or
// non-finite SST, or a level so far above their spread that rounding
// could decide the test, are never screened.
func DetectIncrease(xs []float64, opts Options, buf *[]float64) (res Result, screened bool) {
	opts = opts.withDefaults()
	n := len(xs)
	if n < 2*opts.MinSegment {
		return Result{PValue: 1}, false
	}
	t, quiet := cusumScreen(xs, opts.MinSegment, criticalValue(opts.Alpha))
	if quiet {
		return Result{PValue: 1}, true
	}
	return refine(xs, t, opts, buf), false
}

// cusumScreen is CUSUM's pass — the same mean, partial sums and argmax,
// so t is CUSUM(xs) — extended with the sums the screen needs. quiet
// reports that no split with S_t < 0 in [minSeg, n−minSeg] can reach the
// statistic c.
func cusumScreen(xs []float64, minSeg int, c float64) (t int, quiet bool) {
	n := len(xs)
	mean := stats.Mean(xs)
	best, bestIdx := 0.0, 0
	s, sst, ssb := 0.0, 0.0, 0.0 // ssb: the largest S_t²/(t(n−t)) so far
	for i := 0; i < n-1; i++ {
		d := xs[i] - mean
		s += d
		sst += d * d
		if a := math.Abs(s); a > best {
			best, bestIdx = a, i+1
		}
		if split := i + 1; s < 0 && split >= minSeg && split <= n-minSeg {
			if v := s * s / float64(split*(n-split)); v > ssb {
				ssb = v
			}
		}
	}
	d := xs[n-1] - mean
	sst += d * d
	if !(sst > 0 && sst <= math.MaxFloat64) {
		return bestIdx, false
	}
	nf := float64(n)
	// Rounding in the partial sums and in the test's variances grows
	// with n² and with how far the level sits above the spread.
	margin := 1e-7 + 64*nf*nf*epsilon*(1+math.Abs(mean)*math.Sqrt(nf/sst))
	if !(margin < 0.5) {
		return bestIdx, false
	}
	limit := sst * -math.Expm1(-c/nf) * (1 - margin)
	return bestIdx, ssb*nf <= limit
}

// epsilon is the float64 unit roundoff.
const epsilon = 0x1p-53

// criticalValue returns the largest statistic the likelihood-ratio test
// does not reject at alpha: the largest x with ChiSquaredSurvival(x, 2) ≥
// alpha, found by bisection over the function the test itself calls. The
// last alpha's answer is kept, so a detector run over many series at one
// level inverts once.
func criticalValue(alpha float64) float64 {
	if m := critMemo.Load(); m != nil && m.alpha == alpha {
		return m.c
	}
	lo, hi := 0.0, 1.0
	for stats.ChiSquaredSurvival(hi, 2) >= alpha {
		lo, hi = hi, 2*hi
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if stats.ChiSquaredSurvival(mid, 2) >= alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	critMemo.Store(&critical{alpha: alpha, c: lo})
	return lo
}

type critical struct{ alpha, c float64 }

var critMemo atomic.Pointer[critical]
