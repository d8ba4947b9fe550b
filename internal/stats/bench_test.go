package stats

import (
	"math/rand"
	"testing"
)

func benchData(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*5 + float64(i)*0.001
	}
	return xs
}

func BenchmarkMeanVariance1k(b *testing.B) {
	xs := benchData(1000)
	for i := 0; i < b.N; i++ {
		MeanVariance(xs)
	}
}

func BenchmarkPercentile1k(b *testing.B) {
	xs := benchData(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 95)
	}
}

func BenchmarkMannKendall500(b *testing.B) {
	xs := benchData(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MannKendall(xs, 0.05)
	}
}

func BenchmarkTheilSen500(b *testing.B) {
	xs := benchData(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TheilSen(xs)
	}
}

func BenchmarkTheilSen5kSubsampled(b *testing.B) {
	xs := benchData(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TheilSen(xs)
	}
}

func BenchmarkLikelihoodRatio1k(b *testing.B) {
	xs := benchData(1000)
	for i := 0; i < b.N; i++ {
		LikelihoodRatioTest(xs, 500, 0.01)
	}
}

func BenchmarkPearson1k(b *testing.B) {
	a, c := benchData(1000), benchData(1000)
	for i := 0; i < b.N; i++ {
		Pearson(a, c)
	}
}

// BenchmarkTheilSen240 is the went-away trend test's largest fit on a live
// scan: a 240-point post window (the 180-point analysis window after an
// early change point plus the 60-point extended one), 28 680 pairwise
// slopes, one median.
func BenchmarkTheilSen240(b *testing.B) {
	xs := benchData(240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink, _ = TheilSen(xs)
	}
}

// BenchmarkDominantSeasonLag540 is the seasonality detector's period
// search over a full 9 h window at one-minute steps: lags 4..269.
func BenchmarkDominantSeasonLag540(b *testing.B) {
	xs := benchData(540)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, benchSink = DominantSeasonLag(xs, 4, 270)
	}
}

// benchSink keeps a benchmarked call from being optimised away.
var benchSink float64

// BenchmarkMannKendall450 is the went-away trend test's larger window on
// a live scan: 450 points.
func BenchmarkMannKendall450(b *testing.B) {
	xs := benchData(450)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = MannKendall(xs, 0.05).Z
	}
}
