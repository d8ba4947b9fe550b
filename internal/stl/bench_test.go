package stl

import (
	"math"
	"math/rand"
	"testing"
)

func benchSeasonal(n, period int) []float64 {
	rng := rand.New(rand.NewSource(1))
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = 10 + 2*math.Sin(2*math.Pi*float64(i)/float64(period)) + rng.NormFloat64()*0.1
	}
	return ys
}

func BenchmarkLoess1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Loess(ys, 101)
	}
}

func BenchmarkDecompose1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(ys, 96, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectPeriod1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DetectPeriod(ys, 4, 400, 3)
	}
}

// BenchmarkLoess540 is the period search's detrend: a 540-point window
// (9 h at one-minute steps) smoothed with span n/4 = 135.
func BenchmarkLoess540(b *testing.B) {
	ys := benchSeasonal(540, 120)
	dst := make([]float64, len(ys))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LoessInto(dst, ys, 135)
	}
}

// BenchmarkDetectPeriod540 is the seasonality stage's period search over
// a full live window: the detrend above, then lags 4..269 (core's maximum seasonal period, 400, clamped to n/2-1).
func BenchmarkDetectPeriod540(b *testing.B) {
	ys := benchSeasonal(540, 120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DetectPeriod(ys, 4, 400, 3)
	}
}
