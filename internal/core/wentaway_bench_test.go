package core

import (
	"math/rand"
	"testing"
)

// wentAwaySink keeps the benchmarked call from being optimised away.
var wentAwaySink WentAwayVerdict

// BenchmarkCheckWentAway prices one went-away decision on the live_slide
// window sizes (300/180/60 points) for the three candidate shapes that
// make up a sliding sweep — each decided by a cheap term, so none may
// reach the trend test — and for a small step that does reach it. It
// decides as a sweep worker does, in a scratch kept across candidates.
func BenchmarkCheckWentAway(b *testing.B) {
	for _, bc := range []struct {
		name      string
		shape     int // genWentAwayCase's i
		wantTrend bool
	}{
		{"seasonal-reflag", 0, false},
		{"step", 1, false},
		{"transient", 4, false},
		{"trend-test", 2, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// The first candidate of the shape that takes the path the
			// case is named for; the seed is fixed, so it is always the
			// same one.
			rng := rand.New(rand.NewSource(1))
			var r *Regression
			for try := 0; ; try++ {
				if try == 100 {
					b.Fatalf("no %s candidate with trend test = %v in 100 draws", bc.name, bc.wantTrend)
				}
				c := genWentAwayCase(rng, bc.shape)
				r = regressionAt(b, buildWindows(b, c.hist, c.analysis, c.extended), c.cp)
				if v := CheckWentAway(WentAwayConfig{}, r); (v.Skipped&TermLastingTrend == 0) == bc.wantTrend {
					break
				}
			}
			var sc wentAwayScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wentAwaySink = checkWentAway(WentAwayConfig{}, r, &sc)
			}
		})
	}
}
