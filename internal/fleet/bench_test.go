package fleet

import (
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/tsdb"
)

func BenchmarkServiceRunOneHour(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree := Generate(rng, 100, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc, err := NewService(Config{
			Name: "bench", Servers: 10000, Step: time.Minute,
			SamplesPerStep: 1e5, BaseCPU: 0.5, CPUNoise: 0.05,
			BaseThroughput: 1000, Tree: tree, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		db := tsdb.New(time.Minute)
		if err := svc.Run(db, nil, t0, t0.Add(time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpectedSamples(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree := Generate(rng, 500, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ExpectedSamples(1e6)
	}
}

func BenchmarkTreeClone(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree := Generate(rng, 500, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Clone()
	}
}
