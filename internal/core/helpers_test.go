package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

// buildWindows makes a Windows struct from three value slices at 1-minute
// steps.
func buildWindows(t testing.TB, hist, analysis, extended []float64) timeseries.Windows {
	t.Helper()
	all := make([]float64, 0, len(hist)+len(analysis)+len(extended))
	all = append(all, hist...)
	all = append(all, analysis...)
	all = append(all, extended...)
	s := timeseries.New(t0, time.Minute, all)
	cfg := timeseries.WindowConfig{
		Historic: time.Duration(len(hist)) * time.Minute,
		Analysis: time.Duration(len(analysis)) * time.Minute,
		Extended: time.Duration(len(extended)) * time.Minute,
	}
	ws, err := cfg.Cut(s, s.End())
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// noisy returns n points of mean mu with noise sigma.
func noisy(rng *rand.Rand, n int, mu, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mu + rng.NormFloat64()*sigma
	}
	return out
}

// regressionAt builds a Regression with the given windows and change
// point, deriving means from the data.
func regressionAt(t testing.TB, ws timeseries.Windows, cp int) *Regression {
	t.Helper()
	r := NewRegressionRecord(tsdb.ID("svc", "sub", "gcpu"))
	r.Windows = ws
	r.ChangePoint = cp
	r.ChangePointTime = ws.Analysis.TimeAt(cp)
	before := ws.Analysis.Values[:cp]
	after := ws.Analysis.Values[cp:]
	r.Before = mean(before)
	r.After = mean(after)
	r.Delta = r.After - r.Before
	if r.Before != 0 {
		r.Relative = r.Delta / r.Before
	}
	return r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
