package timeseries

import (
	"testing"
	"time"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func mkSeries(vals ...float64) *Series {
	return New(t0, time.Minute, vals)
}

func TestSeriesBasics(t *testing.T) {
	s := mkSeries(1, 2, 3)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.End().Equal(t0.Add(3 * time.Minute)) {
		t.Errorf("End = %v", s.End())
	}
	if !s.TimeAt(2).Equal(t0.Add(2 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", s.TimeAt(2))
	}
}

func TestIndexOfClamping(t *testing.T) {
	s := mkSeries(1, 2, 3, 4)
	if got := s.IndexOf(t0.Add(-time.Hour)); got != 0 {
		t.Errorf("before start: %d", got)
	}
	if got := s.IndexOf(t0.Add(2 * time.Minute)); got != 2 {
		t.Errorf("mid: %d", got)
	}
	if got := s.IndexOf(t0.Add(time.Hour)); got != 4 {
		t.Errorf("past end: %d", got)
	}
}

func TestSlice(t *testing.T) {
	s := mkSeries(0, 1, 2, 3, 4, 5)
	sub := s.slice(t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	if sub.Len() != 3 || sub.Values[0] != 2 || sub.Values[2] != 4 {
		t.Errorf("Slice = %v", sub.Values)
	}
	if !sub.Start.Equal(t0.Add(2 * time.Minute)) {
		t.Errorf("Slice start = %v", sub.Start)
	}
	// inverted range -> empty
	if inv := s.slice(t0.Add(5*time.Minute), t0.Add(2*time.Minute)); inv.Len() != 0 {
		t.Error("inverted slice should be empty")
	}
}

func TestSliceIndexClamps(t *testing.T) {
	s := mkSeries(0, 1, 2)
	if got := s.SliceIndex(-5, 99); got.Len() != 3 {
		t.Errorf("clamped slice len = %d", got.Len())
	}
	if got := s.SliceIndex(2, 1); got.Len() != 0 {
		t.Errorf("inverted index slice len = %d", got.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mkSeries(1, 2, 3)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestWindowCut(t *testing.T) {
	// 10 hours of minute data; windows 6h/3h/1h ending at series end.
	n := 600
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := mkSeries(vals...)
	cfg := WindowConfig{Historic: 6 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour}
	ws, err := cfg.Cut(s, s.End())
	if err != nil {
		t.Fatal(err)
	}
	if ws.Historic.Len() != 360 || ws.Analysis.Len() != 180 || ws.Extended.Len() != 60 {
		t.Errorf("lens = %d, %d, %d", ws.Historic.Len(), ws.Analysis.Len(), ws.Extended.Len())
	}
	if ws.Historic.Values[0] != 0 || ws.Analysis.Values[0] != 360 || ws.Extended.Values[0] != 540 {
		t.Errorf("boundary values wrong: %v %v %v",
			ws.Historic.Values[0], ws.Analysis.Values[0], ws.Extended.Values[0])
	}
}

func TestWindowCutInsufficientData(t *testing.T) {
	s := mkSeries(1, 2, 3)
	cfg := WindowConfig{Historic: time.Hour, Analysis: time.Hour}
	if _, err := cfg.Cut(s, s.End()); err == nil {
		t.Error("expected error for insufficient data")
	}
	if _, err := cfg.Cut(s, s.End().Add(time.Hour)); err == nil {
		t.Error("expected error for scan past end")
	}
}

func TestWindowValidate(t *testing.T) {
	bad := []WindowConfig{
		{Historic: 0, Analysis: time.Hour},
		{Historic: time.Hour, Analysis: 0},
		{Historic: time.Hour, Analysis: time.Hour, Extended: -time.Hour},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := WindowConfig{Historic: time.Hour, Analysis: time.Hour}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.Total() != 2*time.Hour {
		t.Errorf("Total = %v", good.Total())
	}
}

func TestWindowsJoins(t *testing.T) {
	s := mkSeries(0, 1, 2, 3, 4, 5)
	cfg := WindowConfig{Historic: 2 * time.Minute, Analysis: 2 * time.Minute, Extended: 2 * time.Minute}
	ws, err := cfg.Cut(s, s.End())
	if err != nil {
		t.Fatal(err)
	}
	full := ws.Full()
	if full.Len() != 6 || full.Values[5] != 5 {
		t.Errorf("Full = %v", full.Values)
	}
	// No extended window.
	cfg2 := WindowConfig{Historic: 3 * time.Minute, Analysis: 3 * time.Minute}
	ws2, err := cfg2.Cut(s, s.End())
	if err != nil {
		t.Fatal(err)
	}
	if got := ws2.Full(); got.Len() != 6 {
		t.Errorf("no-extended Full len = %d", got.Len())
	}
}
