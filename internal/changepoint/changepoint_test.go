package changepoint

import (
	"math/rand"
	"testing"
)

func step(rng *rand.Rand, n1, n2 int, mu1, mu2, sigma float64) []float64 {
	xs := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		xs = append(xs, rng.NormFloat64()*sigma+mu1)
	}
	for i := 0; i < n2; i++ {
		xs = append(xs, rng.NormFloat64()*sigma+mu2)
	}
	return xs
}

func TestCUSUMLocatesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := step(rng, 300, 300, 10, 12, 0.5)
	got := CUSUM(xs)
	if got < 290 || got > 310 {
		t.Errorf("CUSUM = %d, want ~300", got)
	}
}

func TestCUSUMShort(t *testing.T) {
	if CUSUM(nil) != 0 || CUSUM([]float64{1}) != 0 {
		t.Error("short series should return 0")
	}
}

func TestDetectStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := step(rng, 400, 200, 50, 50.5, 0.2)
	res := Detect(xs, Options{})
	if !res.Found {
		t.Fatalf("expected change point, p = %v", res.PValue)
	}
	if res.Index < 390 || res.Index > 410 {
		t.Errorf("index = %d, want ~400", res.Index)
	}
	if res.Delta < 0.4 || res.Delta > 0.6 {
		t.Errorf("delta = %v, want ~0.5", res.Delta)
	}
	if res.MeanAfter <= res.MeanBefore {
		t.Error("means inverted")
	}
}

func TestDetectTinyRelativeShift(t *testing.T) {
	// Subroutine-level scenario: gCPU ~0.1% with a 5% relative shift and
	// low variance, many samples — this is the regime the paper argues is
	// detectable.
	rng := rand.New(rand.NewSource(3))
	xs := step(rng, 2000, 1000, 0.001, 0.00105, 0.0002)
	res := Detect(xs, Options{})
	if !res.Found {
		t.Fatalf("tiny regression missed, p = %v", res.PValue)
	}
	if res.Index < 1800 || res.Index > 2200 {
		t.Errorf("index = %d, want ~2000", res.Index)
	}
}

func TestDetectNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	falsePositives := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		xs := step(rng, 150, 150, 10, 10, 1) // no change
		if Detect(xs, Options{}).Found {
			falsePositives++
		}
	}
	// The EM refinement picks the best-looking split, inflating the nominal
	// alpha; the paper accepts this (change-point detection alone has a
	// 99.7% FP rate on transients) and relies on downstream filters. Here we
	// just bound it: detection on pure noise should stay under ~20%.
	if falsePositives > trials/5 {
		t.Errorf("false positives: %d/%d", falsePositives, trials)
	}
}

func TestDetectShortSeries(t *testing.T) {
	if res := Detect([]float64{1, 2, 3}, Options{}); res.Found {
		t.Error("3-point series should not detect")
	}
}

func TestDetectConstantSeries(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 5
	}
	if res := Detect(xs, Options{}); res.Found {
		t.Error("constant series should not detect")
	}
}

func TestDetectConstantStep(t *testing.T) {
	// Perfect noiseless step: the degenerate-variance path should fire.
	xs := make([]float64, 100)
	for i := range xs {
		if i < 50 {
			xs[i] = 1
		} else {
			xs[i] = 2
		}
	}
	res := Detect(xs, Options{})
	if !res.Found || res.Index != 50 {
		t.Errorf("noiseless step: found=%v index=%d", res.Found, res.Index)
	}
}

func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.Alpha != 0.01 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{Alpha: 1.5}.withDefaults()
	if o2.Alpha != 0.01 {
		t.Errorf("invalid alpha not corrected: %v", o2.Alpha)
	}
}

func TestNormalLossSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := step(rng, 250, 250, 0, 3, 0.5)
	idx, loss := NormalLossSplit(xs, 2)
	if idx < 245 || idx > 255 {
		t.Errorf("split = %d, want ~250", idx)
	}
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
}

func TestNormalLossSplitShort(t *testing.T) {
	if idx, _ := NormalLossSplit([]float64{1, 2, 3}, 2); idx != 0 {
		t.Errorf("short series split = %d, want 0", idx)
	}
}

func TestNormalLossSplitBeatsAnyOther(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := step(rng, 60, 40, 1, 2, 0.3)
	idx, loss := NormalLossSplit(xs, 2)
	// Verify optimality against brute force.
	for i := 2; i <= len(xs)-2; i++ {
		if l := sseWhole(xs[:i]) + sseWhole(xs[i:]); l < loss-1e-9 {
			t.Fatalf("split %d has loss %v < chosen %d with %v", i, l, idx, loss)
		}
	}
}

func TestMultiSplitTwoSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 300)
	xs = append(xs, step(rng, 100, 100, 0, 5, 0.3)...)
	for i := 0; i < 100; i++ {
		xs = append(xs, rng.NormFloat64()*0.3+10)
	}
	cuts := MultiSplit(xs, 3, 5, 0.05)
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want 2 cuts", cuts)
	}
	if cuts[0] < 95 || cuts[0] > 105 || cuts[1] < 195 || cuts[1] > 205 {
		t.Errorf("cuts = %v, want ~[100, 200]", cuts)
	}
}

func TestMultiSplitNoStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	cuts := MultiSplit(xs, 5, 5, 0.2)
	if len(cuts) > 1 {
		t.Errorf("noise should produce few cuts, got %v", cuts)
	}
}

func TestMultiSplitDegenerate(t *testing.T) {
	if cuts := MultiSplit([]float64{1, 2}, 1, 2, 0.1); cuts != nil {
		t.Errorf("maxSegments=1: %v", cuts)
	}
	if cuts := MultiSplit(nil, 4, 2, 0.1); len(cuts) != 0 {
		t.Errorf("empty input: %v", cuts)
	}
}

func TestMultiSplitCutsSorted(t *testing.T) {
	// Two clear steps at 20 and 40; the cuts must come back sorted even
	// though the larger gain is found first.
	xs := make([]float64, 60)
	for i := range xs {
		switch {
		case i >= 40:
			xs[i] = 9
		case i >= 20:
			xs[i] = 4
		}
	}
	cuts := MultiSplit(xs, 4, 5, 0.05)
	if len(cuts) < 2 {
		t.Fatalf("MultiSplit = %v, want >= 2 cuts", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i-1] >= cuts[i] {
			t.Fatalf("cuts not sorted: %v", cuts)
		}
	}
}
