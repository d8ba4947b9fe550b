// Package timeseries defines the time-series model shared by the FBDetect
// pipeline: regularly spaced Series values, the historic/analysis/extended
// window layout of paper Figure 4, cross-server aggregation, and resampling.
package timeseries

import (
	"fmt"
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

// slice returns the sub-series covering [from, to), by value, for callers
// that place the header themselves. It shares the underlying values.
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

func (s *Series) String() string {
	return fmt.Sprintf("Series[start=%s step=%s n=%d]",
		s.Start.Format(time.RFC3339), s.Step, len(s.Values))
}
