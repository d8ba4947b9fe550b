package edivisive

import "math"

// Stream maintains E-divisive state over an append-only series so a CI
// pipeline re-scanning after every benchmark run does not pay the full
// O(n²) pairwise-distance rebuild each time. Appending a point extends
// the absolute-difference row sums in O(n); the top-level best-split
// scan over the maintained rows is then O(n) (hierarchical recursion
// below the first split still rebuilds within its sub-segments).
//
// The zero value is ready to use. Stream is not safe for concurrent use.
type Stream struct {
	xs    []float64
	left  []float64 // left[t] = Σ_{i<t} |xs[i]-xs[t]|
	right []float64 // right[t] = Σ_{j>t} |xs[t]-xs[j]|
}

// NewStream returns a Stream pre-loaded with xs.
func NewStream(xs ...float64) *Stream {
	s := &Stream{}
	for _, x := range xs {
		s.Append(x)
	}
	return s
}

// Append adds one benchmark run to the series in O(n).
func (s *Stream) Append(x float64) {
	var l float64
	for i, xi := range s.xs {
		d := math.Abs(xi - x)
		s.right[i] += d
		l += d
	}
	s.xs = append(s.xs, x)
	s.left = append(s.left, l)
	s.right = append(s.right, 0)
}

// Len returns the number of buffered points.
func (s *Stream) Len() int { return len(s.xs) }

// Values returns a copy of the buffered series.
func (s *Stream) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// BestSplit returns the split index and Q statistic of the strongest
// candidate change point over the whole buffered series, computed in
// O(n) from the maintained rows. tau = 0 means no admissible split.
// Callers deciding whether to alert should still validate the candidate
// with Detect (permutation significance); BestSplit is the cheap
// per-append screen.
func (s *Stream) BestSplit(minSeg int) (tau int, q float64) {
	return bestSplit(s.left, s.right, minSeg)
}

// Detect runs the full hierarchical detection (including permutation
// testing) over the buffered series. The first-level scan reuses the
// maintained rows; deeper levels recompute within their segments.
func (s *Stream) Detect() []ChangePoint {
	return detect(s.xs, &rows{left: s.left, right: s.right})
}
