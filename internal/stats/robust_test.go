package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestTheilSenPerfectLine(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 3 + 0.5*float64(i)
	}
	slope, intercept := TheilSen(xs)
	if !almostEqual(slope, 0.5, 1e-9) {
		t.Errorf("slope = %v, want 0.5", slope)
	}
	if !almostEqual(intercept, 3, 1e-9) {
		t.Errorf("intercept = %v, want 3", intercept)
	}
}

func TestTheilSenRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 1 + 0.2*float64(i) + rng.NormFloat64()*0.01
	}
	// Corrupt 15% of points with huge spikes.
	for i := 0; i < 30; i++ {
		xs[rng.Intn(len(xs))] += 1000
	}
	slope, _ := TheilSen(xs)
	if !almostEqual(slope, 0.2, 0.02) {
		t.Errorf("slope with outliers = %v, want ~0.2", slope)
	}
}

func TestTheilSenLargeInputSubsampling(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 7 - 0.01*float64(i)
	}
	slope, _ := TheilSen(xs)
	if !almostEqual(slope, -0.01, 1e-9) {
		t.Errorf("slope = %v, want -0.01", slope)
	}
}

func TestTheilSenDegenerate(t *testing.T) {
	if s, b := TheilSen(nil); s != 0 || b != 0 {
		t.Errorf("TheilSen(nil) = %v, %v", s, b)
	}
	if s, b := TheilSen([]float64{5}); s != 0 || b != 5 {
		t.Errorf("TheilSen({5}) = %v, %v", s, b)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{2, 4, 6, 8, 10}
	a, b, rmse := LinearFit(xs)
	if !almostEqual(a, 2, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(rmse, 0, 1e-9) {
		t.Errorf("LinearFit = %v, %v, %v", a, b, rmse)
	}
}

func TestLinearFitRMSEPositiveForNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i) + rng.NormFloat64()
	}
	_, slope, rmse := LinearFit(xs)
	if rmse <= 0 {
		t.Errorf("rmse = %v, want > 0", rmse)
	}
	if !almostEqual(slope, 1, 0.1) {
		t.Errorf("slope = %v, want ~1", slope)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if a, b, r := LinearFit(nil); a != 0 || b != 0 || r != 0 {
		t.Error("LinearFit(nil) nonzero")
	}
	if a, b, r := LinearFit([]float64{4}); a != 4 || b != 0 || r != 0 {
		t.Error("LinearFit single element wrong")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	out := MinMaxNormalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("MinMaxNormalize[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	for _, x := range MinMaxNormalize([]float64{7, 7}) {
		if x != 0 {
			t.Error("constant min-max should be zeros")
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	if got := Pearson(a, b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	c := []float64{4, 3, 2, 1}
	if got := Pearson(a, c); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantAndShort(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant series should give 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Error("short series should give 0")
	}
}

func TestPearsonBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a := normalSeries(rng, 30, 0, 1)
		b := normalSeries(rng, 30, 0, 1)
		if r := Pearson(a, b); r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("Pearson out of bounds: %v", r)
		}
	}
}

func TestAutocorrelationSeasonal(t *testing.T) {
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	if c := Autocorrelation(xs, 24); c < 0.9 {
		t.Errorf("autocorrelation at season lag = %v, want > 0.9", c)
	}
	if c := Autocorrelation(xs, 12); c > -0.9 {
		t.Errorf("autocorrelation at half lag = %v, want < -0.9", c)
	}
}

func TestDominantSeasonLag(t *testing.T) {
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = math.Sin(2*math.Pi*float64(i)/24) + 0.01*float64(i%3)
	}
	lag, corr := DominantSeasonLag(xs, 2, 100)
	if lag != 24 && lag != 48 && lag != 72 {
		t.Errorf("dominant lag = %d, want multiple of 24", lag)
	}
	if corr < 0.9 {
		t.Errorf("corr = %v, want > 0.9", corr)
	}
}

func TestDominantSeasonLagWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := normalSeries(rng, 500, 0, 1)
	_, corr := DominantSeasonLag(xs, 2, 200)
	if corr > 3*AutocorrelationSignificance(len(xs)) {
		t.Errorf("white noise corr = %v, unexpectedly high", corr)
	}
}
