package changepoint

import (
	"math/rand"
	"testing"
)

func batchStepSeries(n int, base, noise float64, seed int64, steps map[int]float64) []float64 {
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

func TestCUSUMBatchSegmentsTwoSteps(t *testing.T) {
	xs := batchStepSeries(150, 100, 0.8, 5, map[int]float64{50: 10, 100: -6})
	var d BatchDetector = CUSUMBatch{}
	if d.Name() != "cusum" {
		t.Errorf("Name = %q", d.Name())
	}
	pts := d.Segment(xs)
	if len(pts) < 2 {
		t.Fatalf("Segment = %+v, want at least the 2 injected steps", pts)
	}
	var near50, near100 bool
	for i, p := range pts {
		if i > 0 && pts[i-1].Index >= p.Index {
			t.Fatalf("points out of order: %+v", pts)
		}
		if p.Index >= 47 && p.Index <= 53 && p.Delta > 8 {
			near50 = true
		}
		if p.Index >= 97 && p.Index <= 103 && p.Delta < -4 {
			near100 = true
		}
	}
	if !near50 || !near100 {
		t.Errorf("steps not localized: %+v", pts)
	}
}

func TestCUSUMBatchQuietSeries(t *testing.T) {
	xs := batchStepSeries(100, 100, 1, 2, nil)
	if pts := (CUSUMBatch{}).Segment(xs); len(pts) > 1 {
		t.Errorf("quiet series produced %d points: %+v", len(pts), pts)
	}
}

func TestCUSUMBatchMaxChangePoints(t *testing.T) {
	// Thirty clean steps: the recursion stops at cusumMaxChangePoints.
	steps := map[int]float64{}
	for i := 20; i < 620; i += 20 {
		steps[i] = 10
	}
	xs := batchStepSeries(640, 100, 0.3, 4, steps)
	if pts := (CUSUMBatch{}).Segment(xs); len(pts) != cusumMaxChangePoints {
		t.Errorf("30 steps returned %d points, want the cap %d", len(pts), cusumMaxChangePoints)
	}
}

func TestDPBatchSegmentsSteps(t *testing.T) {
	xs := batchStepSeries(150, 100, 0.8, 5, map[int]float64{50: 10, 100: -6})
	var d BatchDetector = DPBatch{}
	if d.Name() != "dp" {
		t.Errorf("Name = %q", d.Name())
	}
	pts := d.Segment(xs)
	if len(pts) != 2 {
		t.Fatalf("Segment = %+v, want 2 points", pts)
	}
	if pts[0].Index < 47 || pts[0].Index > 53 || pts[1].Index < 97 || pts[1].Index > 103 {
		t.Errorf("steps not localized: %+v", pts)
	}
	// Neighbor-segment deltas: each step its own size.
	if pts[0].Delta < 8 || pts[0].Delta > 12 {
		t.Errorf("first Delta = %.2f, want ~10", pts[0].Delta)
	}
	if pts[1].Delta > -4 || pts[1].Delta < -8 {
		t.Errorf("second Delta = %.2f, want ~-6", pts[1].Delta)
	}
	for _, p := range pts {
		if p.P > 0.01 {
			t.Errorf("point %d p-value %.3f, want significant", p.Index, p.P)
		}
	}
}

func TestDPBatchQuietSeries(t *testing.T) {
	xs := batchStepSeries(100, 100, 1, 3, nil)
	if pts := (DPBatch{}).Segment(xs); len(pts) != 0 {
		t.Errorf("quiet series produced points: %+v", pts)
	}
}

func TestBatchPointsSkipsDegenerateCuts(t *testing.T) {
	// Constant series: MultiSplit returns nothing, and batchPoints on an
	// empty cut list stays nil.
	xs := make([]float64, 40)
	if pts := batchPoints(xs, nil); pts != nil {
		t.Errorf("batchPoints(nil cuts) = %+v", pts)
	}
	// A constant series with a forced cut: infinite LR statistics must be
	// clamped to a finite sentinel (JSON-safe), means equal, delta 0...
	for i := range xs {
		xs[i] = 7
	}
	pts := batchPoints(xs, []int{20})
	if len(pts) != 1 || pts[0].Delta != 0 {
		t.Fatalf("batchPoints = %+v", pts)
	}
}
