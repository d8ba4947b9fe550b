package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DefBuckets is the default latency layout in seconds, spanning the
// microsecond-scale per-metric detector calls up to multi-second full
// scans.
var DefBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into cumulative buckets and tracks their
// sum, the Prometheus histogram model. Observe is lock-free.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// BucketCount pairs an upper bound with the cumulative count of
// observations at or below it.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the bound as a string so the +Inf bucket survives
// JSON encoding (which rejects non-finite numbers).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatFloat(b.UpperBound), b.Count)), nil
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Concurrent observations make it approximately — not transactionally —
// consistent, which is fine for monitoring.
type HistogramSnapshot struct {
	Buckets []BucketCount `json:"buckets"` // cumulative, ending with +Inf
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
}

// Snapshot copies the current bucket counts (nil-safe: returns a zero
// snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Buckets: make([]BucketCount, len(h.counts)),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{UpperBound: ub, Count: cum}
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing it, the same estimate Prometheus's
// histogram_quantile computes. Values in the +Inf bucket clamp to the
// largest finite bound. Returns NaN on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	n := len(s.Buckets)
	if n == 0 || s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			// Clamp to the largest finite bound (or the sum-derived mean
			// when there are no finite buckets at all).
			if n > 1 {
				return s.Buckets[n-2].UpperBound
			}
			return s.Sum / float64(s.Count)
		}
		lower, prevCount := 0.0, uint64(0)
		if i > 0 {
			lower = s.Buckets[i-1].UpperBound
			prevCount = s.Buckets[i-1].Count
		}
		width := float64(b.Count - prevCount)
		if width == 0 {
			return b.UpperBound
		}
		return lower + (b.UpperBound-lower)*(rank-float64(prevCount))/width
	}
	return s.Buckets[n-1].UpperBound
}
