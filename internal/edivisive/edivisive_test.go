package edivisive

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fbdetect/internal/changepoint"
)

// stepSeries builds a noisy series with mean steps at the given indices:
// steps[i] is applied from index i onward.
func stepSeries(n int, base, noise float64, seed int64, steps map[int]float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	level := base
	for i := range xs {
		if d, ok := steps[i]; ok {
			level += d
		}
		xs[i] = level + rng.NormFloat64()*noise
	}
	return xs
}

func TestDetectSingleStep(t *testing.T) {
	xs := stepSeries(80, 100, 0.5, 7, map[int]float64{40: 5})
	cps := Detect(xs)
	if len(cps) != 1 {
		t.Fatalf("Detect = %d change points, want 1: %+v", len(cps), cps)
	}
	cp := cps[0]
	if cp.Index < 38 || cp.Index > 42 {
		t.Errorf("Index = %d, want ~40", cp.Index)
	}
	if cp.Delta < 4 || cp.Delta > 6 {
		t.Errorf("Delta = %.2f, want ~5", cp.Delta)
	}
	if cp.P > 0.05 {
		t.Errorf("P = %.3f, want significant", cp.P)
	}
	if cp.Q <= 0 {
		t.Errorf("Q = %v, want > 0", cp.Q)
	}
}

func TestDetectTwoSteps(t *testing.T) {
	xs := stepSeries(150, 200, 1, 3, map[int]float64{50: 12, 100: -8})
	cps := Detect(xs)
	if len(cps) != 2 {
		t.Fatalf("Detect = %d change points, want 2: %+v", len(cps), cps)
	}
	if cps[0].Index >= cps[1].Index {
		t.Fatalf("change points not in increasing order: %+v", cps)
	}
	if cps[0].Index < 48 || cps[0].Index > 52 {
		t.Errorf("first Index = %d, want ~50", cps[0].Index)
	}
	if cps[1].Index < 98 || cps[1].Index > 102 {
		t.Errorf("second Index = %d, want ~100", cps[1].Index)
	}
	// Deltas are between neighboring segments, so each step reports its
	// own size, not a cumulative offset.
	if cps[0].Delta < 10 || cps[0].Delta > 14 {
		t.Errorf("first Delta = %.2f, want ~12", cps[0].Delta)
	}
	if cps[1].Delta > -6 || cps[1].Delta < -10 {
		t.Errorf("second Delta = %.2f, want ~-8", cps[1].Delta)
	}
}

func TestDetectNoChange(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11} {
		xs := stepSeries(120, 50, 1, seed, nil)
		if cps := Detect(xs); len(cps) != 0 {
			t.Errorf("seed %d: Detect on pure noise = %+v, want none", seed, cps)
		}
	}
}

func TestDetectConstantSeries(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = 42
	}
	if cps := Detect(xs); len(cps) != 0 {
		t.Errorf("Detect on constants = %+v, want none", cps)
	}
}

func TestDetectShortSeries(t *testing.T) {
	for n := 0; n < 10; n++ {
		xs := stepSeries(n, 10, 0.1, 1, map[int]float64{n / 2: 100})
		if cps := Detect(xs); len(cps) != 0 {
			t.Errorf("n=%d: Detect = %+v, want none (below 2*MinSegment)", n, cps)
		}
	}
}

func TestDetectNonFiniteInput(t *testing.T) {
	xs := stepSeries(60, 10, 0.2, 1, map[int]float64{30: 4})
	xs[5] = math.NaN()
	xs[45] = math.Inf(1)
	// NaN/Inf poison the energy sums; the contract is simply no panic.
	Detect(xs)
}

func TestDetectDeterministic(t *testing.T) {
	xs := stepSeries(100, 30, 2, 5, map[int]float64{60: 4})
	a := Detect(xs)
	b := Detect(xs)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same series, different results:\n%+v\n%+v", a, b)
	}
}

func TestDetectRespectsMinSegment(t *testing.T) {
	// Step right at the edge: the reported index must stay at least
	// minSegment from both ends.
	xs := stepSeries(60, 10, 0.1, 2, map[int]float64{2: 50})
	cps := Detect(xs)
	if len(cps) == 0 {
		t.Fatal("edge step not detected at all")
	}
	for _, cp := range cps {
		if cp.Index < minSegment || cp.Index > len(xs)-minSegment {
			t.Errorf("Index %d violates minSegment %d", cp.Index, minSegment)
		}
	}
}

func TestDetectMaxChangePoints(t *testing.T) {
	// Thirty clean steps: the estimation stops at maxChangePoints.
	steps := map[int]float64{}
	for i := 20; i < 620; i += 20 {
		steps[i] = 10
	}
	xs := stepSeries(640, 100, 0.3, 4, steps)
	if cps := Detect(xs); len(cps) != maxChangePoints {
		t.Errorf("30 steps returned %d points, want the cap %d", len(cps), maxChangePoints)
	}
}

func TestDetectorImplementsBatchDetector(t *testing.T) {
	var d changepoint.BatchDetector = Detector{}
	if d.Name() != "edivisive" {
		t.Errorf("Name = %q", d.Name())
	}
	xs := stepSeries(80, 100, 0.5, 7, map[int]float64{40: 5})
	pts := d.Segment(xs)
	if len(pts) != 1 {
		t.Fatalf("Segment = %+v, want 1 point", pts)
	}
	if pts[0].Index < 38 || pts[0].Index > 42 {
		t.Errorf("Index = %d, want ~40", pts[0].Index)
	}
	if pts[0].P > 0.05 || pts[0].Score <= 0 {
		t.Errorf("point not validated: %+v", pts[0])
	}
}
