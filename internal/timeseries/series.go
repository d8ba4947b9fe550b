// Package timeseries defines the time-series model shared by the FBDetect
// pipeline: regularly spaced Series values, the historic/analysis/extended
// window layout of paper Figure 4, cross-server aggregation, and resampling.
package timeseries

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Series is a regularly spaced time series: Values[i] was observed at
// Start + i*Step. The zero Series is empty and usable.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// New returns a Series starting at start with the given step and values.
// The values slice is used directly (not copied).
func New(start time.Time, step time.Duration, values []float64) *Series {
	return &Series{Start: start, Step: step, Values: values}
}

// Len returns the number of points in the series.
func (s *Series) Len() int { return len(s.Values) }

// End returns the timestamp one step past the last point, i.e. the
// exclusive end of the series.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the timestamp of point i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the index of the point covering t, clamped to
// [0, Len()]. An index of Len() means t is at or past the end.
func (s *Series) IndexOf(t time.Time) int {
	if s.Step <= 0 || len(s.Values) == 0 {
		return 0
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i < 0 {
		return 0
	}
	if i > len(s.Values) {
		return len(s.Values)
	}
	return i
}

// Slice returns the sub-series covering [from, to). The returned series
// shares the underlying values.
func (s *Series) Slice(from, to time.Time) *Series {
	out := s.slice(from, to)
	return &out
}

// slice is Slice by value, for callers that place the header themselves.
func (s *Series) slice(from, to time.Time) Series {
	i, j := s.IndexOf(from), s.IndexOf(to)
	if j < i {
		j = i
	}
	return Series{Start: s.TimeAt(i), Step: s.Step, Values: s.Values[i:j]}
}

// SliceIndex returns the sub-series covering indices [i, j), clamped to
// valid bounds. The returned series shares the underlying values.
func (s *Series) SliceIndex(i, j int) *Series {
	n := len(s.Values)
	if i < 0 {
		i = 0
	}
	if j > n {
		j = n
	}
	if j < i {
		j = i
	}
	return &Series{Start: s.TimeAt(i), Step: s.Step, Values: s.Values[i:j]}
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	vs := make([]float64, len(s.Values))
	copy(vs, s.Values)
	return &Series{Start: s.Start, Step: s.Step, Values: vs}
}

// Append adds values to the end of the series.
func (s *Series) Append(values ...float64) {
	s.Values = append(s.Values, values...)
}

// AppendRepeat appends n copies of v, growing the backing array at most
// once — the bulk form gap filling uses so a long-gapped series costs one
// allocation instead of O(gap) appends.
func (s *Series) AppendRepeat(v float64, n int) {
	if n <= 0 {
		return
	}
	s.Values = slices.Grow(s.Values, n)
	for i := 0; i < n; i++ {
		s.Values = append(s.Values, v)
	}
}

func (s *Series) String() string {
	return fmt.Sprintf("Series[start=%s step=%s n=%d]",
		s.Start.Format(time.RFC3339), s.Step, len(s.Values))
}

// ErrStepMismatch is returned by operations that require series with equal
// steps and aligned starts.
var ErrStepMismatch = errors.New("timeseries: step or alignment mismatch")

// Average returns the pointwise average of the given series, which must all
// share the same step and start. The result has the length of the shortest
// input. Averaging per-server series is how FBDetect reduces noise with
// fleet size (paper Figure 2).
func Average(series []*Series) (*Series, error) {
	if len(series) == 0 {
		return &Series{}, nil
	}
	first := series[0]
	n := first.Len()
	for _, s := range series[1:] {
		if s.Step != first.Step || !s.Start.Equal(first.Start) {
			return nil, ErrStepMismatch
		}
		if s.Len() < n {
			n = s.Len()
		}
	}
	out := make([]float64, n)
	for _, s := range series {
		for i := 0; i < n; i++ {
			out[i] += s.Values[i]
		}
	}
	inv := 1 / float64(len(series))
	for i := range out {
		out[i] *= inv
	}
	return &Series{Start: first.Start, Step: first.Step, Values: out}, nil
}

// Downsample returns a new series whose step is factor times larger, with
// each output point the mean of factor consecutive input points. A trailing
// partial bucket is averaged over however many points it holds.
func (s *Series) Downsample(factor int) *Series {
	if factor <= 1 || len(s.Values) == 0 {
		return s.Clone()
	}
	n := (len(s.Values) + factor - 1) / factor
	out := make([]float64, 0, n)
	for i := 0; i < len(s.Values); i += factor {
		j := i + factor
		if j > len(s.Values) {
			j = len(s.Values)
		}
		sum := 0.0
		for _, v := range s.Values[i:j] {
			sum += v
		}
		out = append(out, sum/float64(j-i))
	}
	return &Series{Start: s.Start, Step: s.Step * time.Duration(factor), Values: out}
}
