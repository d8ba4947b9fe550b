package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, mu, sigma, want float64
	}{
		{0, 0, 1, 0.5},
		{1.96, 0, 1, 0.9750021},
		{-1.96, 0, 1, 0.0249979},
		{110, 100, 10, 0.8413447},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x, c.mu, c.sigma); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("NormalCDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if NormalCDF(1, 2, 0) != 0 || NormalCDF(3, 2, 0) != 1 {
		t.Error("degenerate sigma handling wrong")
	}
}

func TestChiSquaredCDFKnownValues(t *testing.T) {
	// Critical values: chi2(0.99, df=2) = 9.210, chi2(0.95, df=1) = 3.841.
	if got := ChiSquaredCDF(9.210, 2); !almostEqual(got, 0.99, 1e-3) {
		t.Errorf("ChiSquaredCDF(9.210, 2) = %v, want 0.99", got)
	}
	if got := ChiSquaredCDF(3.841, 1); !almostEqual(got, 0.95, 1e-3) {
		t.Errorf("ChiSquaredCDF(3.841, 1) = %v, want 0.95", got)
	}
	if got := ChiSquaredCDF(0, 3); got != 0 {
		t.Errorf("ChiSquaredCDF(0, 3) = %v, want 0", got)
	}
}

func TestChiSquaredCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return ChiSquaredCDF(lo, 3) <= ChiSquaredCDF(hi, 3)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
