package edivisive

import "testing"

// BenchmarkEDivisive measures the full hierarchical batch detection —
// row-sum builds plus the permutation significance tests — over a
// 240-run series with two real steps, the shape of one busy CI
// signature. Gated in BENCH_baseline.txt via `make bench-gate`.
func BenchmarkEDivisive(b *testing.B) {
	xs := stepSeries(240, 150, 1.2, 17, map[int]float64{90: 8, 170: -5})
	b.ReportAllocs()
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		found = len(Detect(xs))
	}
	if found != 2 {
		b.Fatalf("detected %d change points, want 2", found)
	}
}
