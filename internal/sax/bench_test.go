package sax

import (
	"math/rand"
	"testing"
)

func BenchmarkEncode1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	enc := encoderFor(b, xs)
	letters, counts := make([]int, len(xs)), make([]int, enc.Buckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeInto(letters, counts, xs)
	}
}

func BenchmarkInvalidFraction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hist := make([]float64, 1000)
	post := make([]float64, 300)
	for i := range hist {
		hist[i] = rng.NormFloat64()
	}
	for i := range post {
		post[i] = rng.NormFloat64() + 3
	}
	enc := encoderFor(b, append(append([]float64{}, hist...), post...))
	hw := enc.Encode(hist)
	pw := enc.Encode(post)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pw.InvalidFraction(hw)
	}
}
