package changepoint

import (
	"math/rand"
	"testing"
)

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		mu := 10.0
		if i >= n/2 {
			mu = 10.5
		}
		xs[i] = mu + rng.NormFloat64()*0.3
	}
	return xs
}

func BenchmarkCUSUM1k(b *testing.B) {
	xs := benchSeries(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CUSUM(xs)
	}
}

func BenchmarkDetect1k(b *testing.B) {
	xs := benchSeries(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Detect(xs, Options{})
	}
}

func BenchmarkDetect10k(b *testing.B) {
	xs := benchSeries(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Detect(xs, Options{})
	}
}

func BenchmarkNormalLossSplit10k(b *testing.B) {
	xs := benchSeries(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalLossSplit(xs, 2)
	}
}
