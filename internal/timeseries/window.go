package timeseries

import (
	"fmt"
	"time"
)

// WindowConfig describes the three detection windows of paper Figure 4:
// the historic window (baseline), the analysis window (where regressions
// are reported), and the extended window (used to check persistence).
// Windows are laid out back-to-back ending at the scan time:
//
//	[ historic ][ analysis ][ extended ]
//	                                   ^ scan time
//
// Extended may be zero (several Table 1 configurations have no extended
// window), in which case the analysis window ends at the scan time.
type WindowConfig struct {
	Historic time.Duration
	Analysis time.Duration
	Extended time.Duration
}

// Validate reports whether the configuration is usable.
func (w WindowConfig) Validate() error {
	if w.Historic <= 0 {
		return fmt.Errorf("timeseries: historic window must be positive, got %s", w.Historic)
	}
	if w.Analysis <= 0 {
		return fmt.Errorf("timeseries: analysis window must be positive, got %s", w.Analysis)
	}
	if w.Extended < 0 {
		return fmt.Errorf("timeseries: extended window must be non-negative, got %s", w.Extended)
	}
	return nil
}

// Total returns the combined span of the three windows.
func (w WindowConfig) Total() time.Duration {
	return w.Historic + w.Analysis + w.Extended
}

// Windows holds the three sub-series cut from a full series for one
// detection scan.
type Windows struct {
	Historic *Series
	Analysis *Series
	Extended *Series // empty series if the config has no extended window

	// joined is the contiguous [historic..extended] span of the source
	// series, recorded by Cut so Full and AnalysisAndExtended can return
	// zero-copy sub-slices instead of re-concatenating the windows. Nil for
	// hand-assembled Windows, which fall back to copying.
	joined *Series
}

// Cut slices s into the three windows ending at scanTime. It returns an
// error if the series does not cover the full span.
func (w WindowConfig) Cut(s *Series, scanTime time.Time) (Windows, error) {
	if err := w.Validate(); err != nil {
		return Windows{}, err
	}
	start := scanTime.Add(-w.Total())
	if start.Before(s.Start) {
		return Windows{}, fmt.Errorf(
			"timeseries: series starts %s, need data from %s",
			s.Start.Format(time.RFC3339), start.Format(time.RFC3339))
	}
	if scanTime.After(s.End()) {
		return Windows{}, fmt.Errorf(
			"timeseries: series ends %s, scan time %s",
			s.End().Format(time.RFC3339), scanTime.Format(time.RFC3339))
	}
	histEnd := start.Add(w.Historic)
	anaEnd := histEnd.Add(w.Analysis)
	// One allocation for the four sub-series: a sliding scan cuts every
	// series every cycle.
	blk := &[4]Series{
		s.slice(start, histEnd),
		s.slice(histEnd, anaEnd),
		s.slice(anaEnd, scanTime),
		s.slice(start, scanTime),
	}
	return Windows{Historic: &blk[0], Analysis: &blk[1], Extended: &blk[2], joined: &blk[3]}, nil
}

// Clone returns a deep copy of the windows. Cut-produced windows clone
// the one joined backing array and re-slice the three sub-windows from
// it, preserving the zero-copy relationship among them; hand-assembled
// windows clone each sub-series independently. Callers that must retain
// windows past the lifetime of a shared or reused backing buffer (e.g.
// detector checkpoints over scratch-decoded views) clone first.
func (ws Windows) Clone() Windows {
	if ws.joined != nil {
		j := ws.joined.Clone()
		h, a := ws.Historic.Len(), ws.Analysis.Len()
		return Windows{
			Historic: j.SliceIndex(0, h),
			Analysis: j.SliceIndex(h, h+a),
			Extended: j.SliceIndex(h+a, j.Len()),
			joined:   j,
		}
	}
	out := Windows{}
	if ws.Historic != nil {
		out.Historic = ws.Historic.Clone()
	}
	if ws.Analysis != nil {
		out.Analysis = ws.Analysis.Clone()
	}
	if ws.Extended != nil {
		out.Extended = ws.Extended.Clone()
	}
	return out
}

// AnalysisAndExtended returns the analysis and extended windows joined into
// one series; detectors that look past the analysis window use this view.
// Windows produced by Cut share the source series' values (zero-copy);
// treat the result as read-only.
func (ws Windows) AnalysisAndExtended() *Series {
	if ws.Extended == nil || ws.Extended.Len() == 0 {
		return ws.Analysis
	}
	if ws.joined != nil {
		return ws.joined.SliceIndex(ws.Historic.Len(), ws.joined.Len())
	}
	vals := make([]float64, 0, ws.Analysis.Len()+ws.Extended.Len())
	vals = append(vals, ws.Analysis.Values...)
	vals = append(vals, ws.Extended.Values...)
	return &Series{Start: ws.Analysis.Start, Step: ws.Analysis.Step, Values: vals}
}

// Full returns all three windows joined into one series. Windows produced
// by Cut share the source series' values (zero-copy); treat the result as
// read-only.
func (ws Windows) Full() *Series {
	if ws.joined != nil {
		return ws.joined
	}
	vals := make([]float64, 0, ws.Historic.Len()+ws.Analysis.Len()+ws.Extended.Len())
	vals = append(vals, ws.Historic.Values...)
	vals = append(vals, ws.Analysis.Values...)
	if ws.Extended != nil {
		vals = append(vals, ws.Extended.Values...)
	}
	return &Series{Start: ws.Historic.Start, Step: ws.Historic.Step, Values: vals}
}
