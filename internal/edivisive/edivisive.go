// Package edivisive implements E-divisive-means change-point detection
// (Matteson & James 2014) for sparse commit-indexed benchmark series —
// the offline batch sibling of FBDetect's in-production CUSUM path, and
// the algorithm Hunter (DataStax) and MongoDB's CI detector run on
// per-commit performance data. The energy-statistic divergence makes no
// normality assumption, and significance comes from a permutation test
// rather than a parametric tail, which is what makes it robust on the
// heavy-tailed, low-sample-count series CI benchmarks produce.
//
// The package also carries the commit-attribution layer (attribute.go)
// that maps detected change points back to candidate commits/pushes with
// confidence windows.
package edivisive

import (
	"math"
	"math/rand"
	"sort"

	"fbdetect/internal/changepoint"
	"fbdetect/internal/stats"
)

// Detect's fixed parameters.
const (
	// significance is the permutation-test p-value at or below which a
	// candidate split is accepted (Hunter ships 0.05).
	significance = 0.05
	// permutations is the number of random shuffles per significance
	// test. The smallest achievable p-value is 1/(permutations+1), so
	// 199 permutations resolve p = 0.005.
	permutations = 199
	// minSegment is the minimum number of points on each side of a
	// change point (and in every segment of the final segmentation).
	minSegment = 5
	// maxChangePoints bounds the hierarchical estimation.
	maxChangePoints = 16
	// permSeed seeds the permutation test, so the same series always
	// gives the same output.
	permSeed = 1
)

// ChangePoint is one validated E-divisive change point.
type ChangePoint struct {
	// Index is the first point of the new regime.
	Index int `json:"index"`
	// Q is the E-divisive divergence statistic of the accepted split.
	Q float64 `json:"q"`
	// P is the permutation-test p-value ((1+exceed)/(1+permutations)).
	P float64 `json:"p"`
	// MeanBefore/MeanAfter are the means of the neighboring segments in
	// the final segmentation; Delta = MeanAfter - MeanBefore.
	MeanBefore float64 `json:"mean_before"`
	MeanAfter  float64 `json:"mean_after"`
	Delta      float64 `json:"delta"`
}

// rows holds the absolute-difference row sums the Q scan consumes:
// left[t] = Σ_{i<t} |xs[i]-xs[t]| and right[t] = Σ_{j>t} |xs[t]-xs[j]|.
// Building them is the O(n²) part; every scan over them is O(n).
type rows struct {
	left, right []float64
}

func (r *rows) build(xs []float64) {
	n := len(xs)
	r.left = resize(r.left, n)
	r.right = resize(r.right, n)
	for i := 0; i < n; i++ {
		xi := xs[i]
		ri := 0.0
		for j := i + 1; j < n; j++ {
			d := math.Abs(xi - xs[j])
			ri += d
			r.left[j] += d
		}
		r.right[i] += ri
	}
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// bestSplit scans every admissible split of a series whose difference
// row sums are given, maintaining the three energy terms with an O(1)
// update per split. It returns the split index tau (size of the left
// segment) maximizing the Q statistic, or tau = 0 when no admissible
// split exists.
func bestSplit(left, right []float64, minSeg int) (tau int, q float64) {
	n := len(left)
	if minSeg < 2 {
		minSeg = 2
	}
	if n < 2*minSeg {
		return 0, 0
	}
	var total float64
	for _, r := range right {
		total += r
	}
	// At t=1: X={x0}, so the cross term is x0's full right row.
	term1 := right[0]      // Σ cross-pair distances
	term2 := 0.0           // Σ within-X pair distances
	term3 := total - term1 // Σ within-Y pair distances
	best, bestT := 0.0, 0
	for t := 1; t < n; t++ {
		if t >= minSeg && t <= n-minSeg {
			m, k := float64(t), float64(n-t)
			stat := 2 * term1 / (m * k)
			if m > 1 {
				stat -= 2 * term2 / (m * (m - 1))
			}
			if k > 1 {
				stat -= 2 * term3 / (k * (k - 1))
			}
			stat *= m * k / (m + k)
			if stat > best {
				best, bestT = stat, t
			}
		}
		// Move element t from Y into X.
		term1 += right[t] - left[t]
		term2 += left[t]
		term3 -= right[t]
	}
	return bestT, best
}

// qScan builds the row sums for xs and returns its best split.
func qScan(xs []float64, minSeg int, scratch *rows) (tau int, q float64) {
	if len(xs) < 2*minSeg {
		return 0, 0
	}
	scratch.build(xs)
	return bestSplit(scratch.left, scratch.right, minSeg)
}

// permTest estimates the significance of an observed best-split Q on xs
// by shuffling the segment permutations times and counting how often a
// random ordering achieves at least the observed divergence. The returned
// p-value is (1+exceed)/(1+permutations), never exactly zero.
func permTest(xs []float64, observed float64, rng *rand.Rand, scratch *rows, buf []float64) (float64, []float64) {
	buf = append(buf[:0], xs...)
	exceed := 0
	for r := 0; r < permutations; r++ {
		rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		if _, q := qScan(buf, minSegment, scratch); q >= observed {
			exceed++
		}
	}
	return float64(exceed+1) / float64(permutations+1), buf
}

// Detect runs hierarchical E-divisive estimation over xs: repeatedly
// locate the strongest remaining split across all current segments,
// accept it if its within-segment permutation test is significant, and
// recurse until the strongest candidate fails the test (the conditional
// stopping rule of Matteson & James) or maxChangePoints is reached.
// Change points come back in increasing index order with deltas taken
// between neighboring final segments.
func Detect(xs []float64) []ChangePoint {
	rng := rand.New(rand.NewSource(permSeed))
	var scratch rows
	var buf []float64

	type accepted struct {
		index int
		q, p  float64
	}
	var cps []accepted
	cuts := []int{}
	segments := func() [][2]int {
		bounds := append([]int{0}, cuts...)
		bounds = append(bounds, len(xs))
		segs := make([][2]int, 0, len(bounds)-1)
		for i := 0; i+1 < len(bounds); i++ {
			segs = append(segs, [2]int{bounds[i], bounds[i+1]})
		}
		return segs
	}
	for len(cuts) < maxChangePoints {
		bestQ, bestSeg, bestTau := 0.0, -1, 0
		var bestSpan [2]int
		for si, sg := range segments() {
			tau, q := qScan(xs[sg[0]:sg[1]], minSegment, &scratch)
			if tau != 0 && (bestSeg < 0 || q > bestQ) {
				bestQ, bestSeg, bestTau, bestSpan = q, si, tau, sg
			}
		}
		if bestSeg < 0 {
			break
		}
		var p float64
		p, buf = permTest(xs[bestSpan[0]:bestSpan[1]], bestQ, rng, &scratch, buf)
		if p > significance {
			break
		}
		cut := bestSpan[0] + bestTau
		cuts = append(cuts, cut)
		sort.Ints(cuts)
		cps = append(cps, accepted{index: cut, q: bestQ, p: p})
	}
	if len(cps) == 0 {
		return nil
	}

	sort.Slice(cps, func(i, j int) bool { return cps[i].index < cps[j].index })
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(xs))
	out := make([]ChangePoint, len(cps))
	for i, cp := range cps {
		before := stats.Mean(xs[bounds[i]:cp.index])
		after := stats.Mean(xs[cp.index:bounds[i+2]])
		out[i] = ChangePoint{
			Index:      cp.index,
			Q:          cp.q,
			P:          cp.p,
			MeanBefore: before,
			MeanAfter:  after,
			Delta:      after - before,
		}
	}
	return out
}

// Detector adapts Detect to the changepoint.BatchDetector interface so
// the replay harness can score E-divisive means alongside the CUSUM and
// DP families.
type Detector struct{}

// Name implements changepoint.BatchDetector.
func (Detector) Name() string { return "edivisive" }

// Segment implements changepoint.BatchDetector.
func (Detector) Segment(xs []float64) []changepoint.BatchPoint {
	cps := Detect(xs)
	out := make([]changepoint.BatchPoint, len(cps))
	for i, cp := range cps {
		out[i] = changepoint.BatchPoint{
			Index: cp.Index, Delta: cp.Delta, Score: cp.Q, P: cp.P,
		}
	}
	return out
}
