package core

import (
	"math/rand"
	"testing"

	"fbdetect/internal/tsdb"
)

// shortTermSink keeps the benchmarked call from being optimised away.
var shortTermSink *Regression

// BenchmarkDetectShortTermQuiet180 prices the change-point stage on what
// a sliding sweep is mostly made of: a 180-point analysis window of
// live_slide noise (2% around the level, on the 1e-6 grid) with no change
// point in it.
func BenchmarkDetectShortTermQuiet180(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := 0.04
	ws := buildWindows(b, liveSlideSeries(rng, 300, base, func(int) float64 { return base }),
		liveSlideSeries(rng, 180, base, func(int) float64 { return base }), nil)
	cfg := Config{}.WithDefaults()
	id := tsdb.ID("svc", "sub", "gcpu")
	at := ws.Analysis.End()
	if DetectShortTerm(cfg, id, ws, at) != nil {
		b.Fatal("the quiet window has a change point")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shortTermSink = DetectShortTerm(cfg, id, ws, at)
	}
}
