package changepoint

import (
	"math"
	"slices"
	"sort"

	"fbdetect/internal/stats"
)

// BatchPoint is one change point located by an offline batch detector
// over a commit-indexed series. Index is the first point of the new
// regime; Delta compares the means of the two neighboring segments in
// the final segmentation (not of the whole series halves), so a series
// with several change points reports each step's own size.
type BatchPoint struct {
	Index int     `json:"index"`
	Delta float64 `json:"delta"`
	// Score is the family-specific strength of the split: the
	// likelihood-ratio statistic for CUSUM and DP, the E-divisive Q
	// statistic for edivisive.
	Score float64 `json:"score"`
	// P is the significance of the split under the family's validation
	// test (1 when the family ran no test for this point).
	P float64 `json:"p"`
}

// BatchDetector is the interface the CI-regression mode's detector
// families share: given one complete sparse series (one value per
// benchmark run, commit-ordered), return every validated change point in
// increasing index order. Implementations: CUSUMBatch and DPBatch here,
// and edivisive.Detector for E-divisive means.
type BatchDetector interface {
	Name() string
	Segment(xs []float64) []BatchPoint
}

// The batch families' fixed parameters.
const (
	// batchAlpha is the significance level of the likelihood-ratio test
	// that validates each CUSUM split and annotates every kept cut.
	batchAlpha = 0.01
	// cusumMaxChangePoints bounds CUSUMBatch's recursion.
	cusumMaxChangePoints = 16
	// dpMaxSegments bounds DPBatch's segmentation (16 change points),
	// dpMinSegment is the minimum points per segment, and dpMinGain the
	// relative loss reduction a split must achieve to be kept.
	dpMaxSegments = 17
	dpMinSegment  = 5
	dpMinGain     = 0.25
)

// CUSUMBatch adapts the production single-change-point CUSUM+EM detector
// (Detect) to whole-series segmentation by recursive bisection: locate
// and validate the best change point, then recurse into both halves
// until the likelihood-ratio test stops rejecting or
// cusumMaxChangePoints are found.
type CUSUMBatch struct{}

// Name implements BatchDetector.
func (CUSUMBatch) Name() string { return "cusum" }

// Segment implements BatchDetector by binary segmentation over Detect.
func (CUSUMBatch) Segment(xs []float64) []BatchPoint {
	var cuts []int
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if len(cuts) >= cusumMaxChangePoints || hi-lo < 2*minSegment {
			return
		}
		r := Detect(xs[lo:hi], Options{Alpha: batchAlpha})
		if !r.Found {
			return
		}
		cut := lo + r.Index
		cuts = slices.Insert(cuts, sort.SearchInts(cuts, cut), cut)
		rec(lo, cut)
		rec(cut, hi)
	}
	rec(0, len(xs))
	return batchPoints(xs, cuts)
}

// DPBatch runs the dynamic-programming normal-loss segmentation
// (MultiSplit) as a batch detector family. It accepts cuts on loss gain;
// the likelihood-ratio p-value on each is annotation only.
type DPBatch struct{}

// Name implements BatchDetector.
func (DPBatch) Name() string { return "dp" }

// Segment implements BatchDetector over MultiSplit.
func (DPBatch) Segment(xs []float64) []BatchPoint {
	return batchPoints(xs, MultiSplit(xs, dpMaxSegments, dpMinSegment, dpMinGain))
}

// batchPoints annotates sorted cut indices with neighbor-segment deltas
// and a likelihood-ratio significance computed within the enclosing
// segment pair, the common report shape every family returns.
func batchPoints(xs []float64, cuts []int) []BatchPoint {
	if len(cuts) == 0 {
		return nil
	}
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(xs))
	points := make([]BatchPoint, 0, len(cuts))
	for i, cut := range cuts {
		lo, hi := bounds[i], bounds[i+2]
		if cut <= lo || cut >= hi {
			continue
		}
		lr := stats.LikelihoodRatioTest(xs[lo:hi], cut-lo, batchAlpha)
		p := BatchPoint{
			Index: cut,
			Delta: stats.Mean(xs[cut:hi]) - stats.Mean(xs[lo:cut]),
			Score: lr.Statistic,
			P:     lr.P,
		}
		if math.IsInf(p.Score, 1) {
			// Degenerate constant segments: report a finite sentinel so
			// JSON encoding of batch reports never sees +Inf.
			p.Score = math.MaxFloat64
		}
		points = append(points, p)
	}
	return points
}
