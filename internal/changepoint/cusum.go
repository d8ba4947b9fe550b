// Package changepoint implements the change-point detection algorithms of
// FBDetect §5.2.1 and §5.3: CUSUM scanning, iterative CUSUM+EM refinement
// with a likelihood-ratio validation test, and a dynamic-programming search
// minimizing the normal (variance) loss for the long-term path.
package changepoint

import (
	"math"

	"fbdetect/internal/stats"
)

// CUSUM returns the index t (1 <= t < len(xs)) at which the cumulative sum
// of deviations from the global mean attains its maximum absolute value,
// which is the classical CUSUM estimate of a single change point. It
// returns 0 if the series is too short to contain one.
func CUSUM(xs []float64) int {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := stats.Mean(xs)
	best, bestIdx := 0.0, 0
	s := 0.0
	for i := 0; i < n-1; i++ {
		s += xs[i] - mean
		if a := math.Abs(s); a > best {
			best, bestIdx = a, i+1
		}
	}
	return bestIdx
}

// emRefine performs one Expectation-Maximization style refinement of a
// candidate change point: given the current split t, it computes the two
// segment means (the M step) and then reassigns the boundary to the index
// that maximizes the two-segment Gaussian likelihood (the E step applied to
// the boundary), scanning near the current estimate. The suffix sums live
// in *buf, grown as needed, so one caller's refinements share one array.
func emRefine(xs []float64, t int, buf *[]float64) int {
	n := len(xs)
	if t <= 0 || t >= n {
		return t
	}
	m1, m2 := splitMeans(xs, t)
	if m1 == m2 {
		return t
	}
	// For a fixed pair of means, total squared error as a function of the
	// boundary is minimized by assigning each point to the closer mean;
	// because the segments must stay contiguous, scan all boundaries using
	// prefix sums for O(n) evaluation.
	bestT, bestSS := t, math.Inf(1)
	var left float64 // sum of squared error to m1 for xs[:i]
	// Precompute suffix squared error to m2.
	if cap(*buf) < n+1 {
		*buf = make([]float64, n+1)
	}
	suffix := (*buf)[:n+1]
	suffix[n] = 0
	for i := n - 1; i >= 0; i-- {
		d := xs[i] - m2
		suffix[i] = suffix[i+1] + d*d
	}
	for i := 1; i < n; i++ {
		d := xs[i-1] - m1
		left += d * d
		if ss := left + suffix[i]; ss < bestSS {
			bestSS, bestT = ss, i
		}
	}
	return bestT
}

// splitMeans returns stats.Mean(xs[:t]) and stats.Mean(xs[t:]), summing
// the two halves side by side: two independent add chains, each in its
// own index order, so the same bits in about half the time.
func splitMeans(xs []float64, t int) (before, after float64) {
	a, b := xs[:t], xs[t:]
	k := min(len(a), len(b))
	var sa, sb float64
	bk := b[:k]
	for i, x := range a[:k] {
		sa += x
		sb += bk[i]
	}
	for _, x := range a[k:] {
		sa += x
	}
	for _, x := range b[k:] {
		sb += x
	}
	if len(a) > 0 {
		before = sa / float64(len(a))
	}
	if len(b) > 0 {
		after = sb / float64(len(b))
	}
	return before, after
}

// Result describes a detected change point.
type Result struct {
	Index      int     // change-point index: first point of the new regime
	MeanBefore float64 // mean of xs[:Index]
	MeanAfter  float64 // mean of xs[Index:]
	Delta      float64 // MeanAfter - MeanBefore
	PValue     float64 // p-value of the likelihood-ratio validation test
	Found      bool    // true if a validated change point was found
}

// Options configures Detect.
type Options struct {
	// Alpha is the significance level of the likelihood-ratio test
	// validating a candidate change point. The paper uses 0.01.
	Alpha float64
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.01
	}
	return o
}

const (
	// maxIterations bounds the CUSUM+EM refinement loop ("until it
	// converges ... or until it uses up the computation time").
	maxIterations = 10
	// minSegment is the minimum number of points on each side of a
	// change point.
	minSegment = 2
)

// Detect locates the most likely single change point in xs using the
// iterative CUSUM+EM procedure of paper §5.2.1 and validates it with the
// likelihood-ratio chi-squared test. Result.Found is false when no
// validated change point exists.
func Detect(xs []float64, opts Options) Result {
	var buf []float64
	return DetectScratch(xs, opts, &buf)
}

// DetectScratch is Detect with its one working array supplied by the
// caller: *buf is grown to len(xs)+1 on first need and reused by every
// later call, so a detector run over many series allocates nothing. The
// result does not reference it.
func DetectScratch(xs []float64, opts Options, buf *[]float64) Result {
	opts = opts.withDefaults()
	n := len(xs)
	if n < 2*minSegment {
		return Result{PValue: 1}
	}
	return refine(xs, CUSUM(xs), opts, buf)
}

// refine is the rest of DetectScratch after the CUSUM estimate t: the EM
// iterations, the clamp to minSegment and the likelihood-ratio test. opts
// must be defaulted and len(xs) at least 2·minSegment.
func refine(xs []float64, t int, opts Options, buf *[]float64) Result {
	n := len(xs)
	if t == 0 {
		return Result{PValue: 1}
	}
	for iter := 0; iter < maxIterations; iter++ {
		next := emRefine(xs, t, buf)
		if next == t {
			break
		}
		t = next
	}
	if t < minSegment {
		t = minSegment
	}
	if t > n-minSegment {
		t = n - minSegment
	}
	lr := stats.LikelihoodRatioTest(xs, t, opts.Alpha)
	m1, m2 := splitMeans(xs, t)
	return Result{
		Index:      t,
		MeanBefore: m1,
		MeanAfter:  m2,
		Delta:      m2 - m1,
		PValue:     lr.P,
		Found:      lr.Reject,
	}
}
