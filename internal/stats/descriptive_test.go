package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of single element = %v, want 0", got)
	}
	// Sample variance of {2,4,4,4,5,5,7,9} is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
}

func TestMeanVarianceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 100
		}
		m, v := MeanVariance(xs)
		if !almostEqual(m, Mean(xs), 1e-9) {
			t.Fatalf("mean mismatch: %v vs %v", m, Mean(xs))
		}
		if !almostEqual(v, Variance(xs), 1e-9) {
			t.Fatalf("variance mismatch: %v vs %v", v, Variance(xs))
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("P50 of {1,2} = %v, want 1.5", got)
	}
	// input not modified
	if xs[0] != 5 {
		t.Errorf("Percentile modified its input: %v", xs)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMAD(t *testing.T) {
	// Median of {1,2,3,4,5} is 3; abs devs {2,1,0,1,2}; median 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := MAD(nil); got != 0 {
		t.Errorf("MAD(nil) = %v, want 0", got)
	}
	// MAD is robust: one huge outlier barely moves it.
	if got := MAD([]float64{1, 2, 3, 4, 1e9}); got > 2 {
		t.Errorf("MAD with outlier = %v, want <= 2", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice handling wrong")
	}
}

func TestMeanBoundedByMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
