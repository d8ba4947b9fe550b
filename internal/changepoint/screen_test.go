package changepoint

import (
	"math"
	"math/rand"
	"testing"

	"fbdetect/internal/stats"
)

// micro puts v on the 1e-6 grid sampled gCPU sits on, the way the
// benchmark's generator writes it: a non-negative count of millionths.
func micro(v float64) float64 {
	return float64(max(0, int64(math.Round(v*1e6)))) / 1e6
}

// screenWindow draws window i of length n: the shapes the screen lets go
// (noise, constants, a lone outlier) and the ones it must not (steps sized
// so the test's statistic lands just either side of the critical value c).
func screenWindow(rng *rand.Rand, i, n int, c float64) (shape string, xs []float64) {
	base := 0.02 + 0.04*rng.Float64()
	sigma := 0.02 * base
	xs = make([]float64, n)
	noise := func() {
		for k := range xs {
			xs[k] = micro(base + sigma*rng.NormFloat64())
		}
	}
	switch i % 8 {
	case 0, 1:
		noise()
		return "noise", xs
	case 2:
		v := micro(base)
		if rng.Intn(4) == 0 {
			v = 0
		}
		for k := range xs {
			xs[k] = v
		}
		return "constant", xs
	case 3:
		noise()
		if rng.Intn(2) == 0 {
			for k := range xs {
				xs[k] = micro(base)
			}
		}
		xs[rng.Intn(n)] += (2*rng.Float64() - 1) * base
		return "outlier", xs
	case 4, 5, 6:
		// A step at t0 explaining the share r of the variance that puts
		// n·log(SST/SSE) at c·(1+u), u within ±20%: up or down.
		noise()
		t0 := 2 + rng.Intn(n-3)
		u := 0.4*rng.Float64() - 0.2
		r := -math.Expm1(-c * (1 + u) / float64(n))
		delta := sigma * float64(n) * math.Sqrt(r/((1-r)*float64(t0*(n-t0))))
		if i%8 == 6 {
			delta = -delta
		}
		for k := t0; k < n; k++ {
			xs[k] = micro(xs[k] + delta)
		}
		return "near-c step", xs
	default:
		// Unquantised, far from the 1e-6 grid: a slow drift plus noise.
		slope := (2*rng.Float64() - 1) * 1e-3
		for k := range xs {
			xs[k] = 10 + slope*float64(k) + rng.NormFloat64()
		}
		return "drift", xs
	}
}

// TestScreenNeverDropsAValidatedIncrease is the screen's oracle: over
// seeded windows at three window lengths and three significance levels, a
// screened window is one where the unscreened DetectScratch finds no
// validated increase, and a window the screen lets through gets exactly
// DetectScratch's result.
func TestScreenNeverDropsAValidatedIncrease(t *testing.T) {
	const perCell = 2400 // 3 lengths × 3 alphas × 2400 = 21 600 windows
	type tally struct{ windows, screened, increases, nearMiss int }
	for _, alpha := range []float64{0.001, 0.01, 0.05} {
		c := criticalValue(alpha)
		for _, n := range []int{16, 180, 540} {
			rng := rand.New(rand.NewSource(int64(n) + int64(alpha*1e6)))
			shapes := map[string]*tally{}
			var buf []float64
			opts := Options{Alpha: alpha}
			for i := 0; i < perCell; i++ {
				shape, xs := screenWindow(rng, i, n, c)
				tl := shapes[shape]
				if tl == nil {
					tl = &tally{}
					shapes[shape] = tl
				}
				tl.windows++
				want := DetectScratch(xs, opts, &buf)
				got, screened := DetectIncrease(xs, opts, &buf)
				increase := want.Found && want.Delta > 0
				if increase {
					tl.increases++
				}
				if !screened {
					if !sameResult(got, want) {
						t.Fatalf("alpha=%v n=%d window %d (%s): DetectIncrease %+v, DetectScratch %+v", alpha, n, i, shape, got, want)
					}
					// Let through, yet its statistic stays below c: the
					// margin the screen keeps (or a decrease).
					if !increase {
						tl.nearMiss++
					}
					continue
				}
				tl.screened++
				if increase {
					t.Fatalf("alpha=%v n=%d window %d (%s): screened, but DetectScratch validates an increase: %+v", alpha, n, i, shape, want)
				}
				if got.Found || got.PValue != 1 {
					t.Fatalf("alpha=%v n=%d window %d (%s): screened result %+v", alpha, n, i, shape, got)
				}
			}
			for _, shape := range []string{"noise", "constant", "outlier", "near-c step", "drift"} {
				tl := shapes[shape]
				t.Logf("alpha=%v n=%3d %-12s windows %4d screened %4d increases %4d let through without one %4d",
					alpha, n, shape, tl.windows, tl.screened, tl.increases, tl.nearMiss)
			}
			// The oracle is only worth the windows it reaches: the screen
			// must fire on noise, and the near-c steps must include both
			// validated increases and increases the test turns down.
			if s := shapes["noise"]; s.screened < s.windows/2 {
				t.Errorf("alpha=%v n=%d: screened %d of %d noise windows", alpha, n, s.screened, s.windows)
			}
			if s := shapes["near-c step"]; s.increases == 0 || s.screened == 0 || s.nearMiss == 0 {
				t.Errorf("alpha=%v n=%d: near-c steps do not straddle c: %+v", alpha, n, *s)
			}
		}
	}
}

// sameResult compares two results bit for bit (NaN fields included).
func sameResult(a, b Result) bool {
	bits := math.Float64bits
	return a.Index == b.Index && a.Found == b.Found &&
		bits(a.MeanBefore) == bits(b.MeanBefore) && bits(a.MeanAfter) == bits(b.MeanAfter) &&
		bits(a.Delta) == bits(b.Delta) && bits(a.PValue) == bits(b.PValue)
}

// TestScreenTakesSlowPathOnDegenerateWindows: a constant window (SST = 0)
// and windows holding a NaN or an infinity are never screened, and get
// DetectScratch's result.
func TestScreenTakesSlowPathOnDegenerateWindows(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"constant", []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}},
		{"nan", []float64{1, 2, 1, 2, math.NaN(), 1, 2, 1, 2, 1}},
		{"+inf", []float64{1, 2, 1, 2, math.Inf(1), 1, 2, 1, 2, 1}},
		{"-inf", []float64{1, 2, 1, 2, 1, 2, math.Inf(-1), 2, 1, 2}},
		{"overflow", []float64{1e300, -1e300, 1e300, -1e300, 1e300, -1e300, 1e300, -1e300}},
		{"level far above spread", []float64{1e9, 1e9 + 1e-6, 1e9, 1e9 + 1e-6, 1e9, 1e9 + 1e-6, 1e9, 1e9}},
	} {
		var buf []float64
		got, screened := DetectIncrease(tc.xs, Options{}, &buf)
		if screened {
			t.Errorf("%s: screened", tc.name)
		}
		if want := DetectScratch(tc.xs, Options{}, &buf); !sameResult(got, want) {
			t.Errorf("%s: %+v, DetectScratch %+v", tc.name, got, want)
		}
	}
}

// TestCriticalValueInvertsTheTest: the critical value is the edge of the
// test's own acceptance region — the survival function is at least alpha
// there and below it one step up — and the memo answers per alpha.
func TestCriticalValueInvertsTheTest(t *testing.T) {
	for _, alpha := range []float64{0.001, 0.01, 0.05, 0.5, 0.99} {
		c := criticalValue(alpha)
		if p := stats.ChiSquaredSurvival(c, 2); p < alpha {
			t.Errorf("alpha=%v: survival(c=%v) = %v < alpha", alpha, c, p)
		}
		if p := stats.ChiSquaredSurvival(math.Nextafter(c, math.Inf(1)), 2); p >= alpha {
			t.Errorf("alpha=%v: survival just above c=%v is %v, still >= alpha", alpha, c, p)
		}
		if want := -2 * math.Log(alpha); math.Abs(c-want) > 1e-9*want {
			t.Errorf("alpha=%v: c = %v, the closed form -2 ln alpha is %v", alpha, c, want)
		}
	}
	if a, b := criticalValue(0.01), criticalValue(0.05); a == b {
		t.Errorf("memo returned one alpha's value for another: %v", a)
	}
}

// TestSplitMeansIsMean: the side-by-side halves give stats.Mean's bits
// for every split, the empty halves included.
func TestSplitMeansIsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 2, 7, 180, 541} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = micro(0.04 + 0.01*rng.NormFloat64())
		}
		for cut := 0; cut <= n; cut++ {
			a, b := splitMeans(xs, cut)
			if wa, wb := stats.Mean(xs[:cut]), stats.Mean(xs[cut:]); math.Float64bits(a) != math.Float64bits(wa) || math.Float64bits(b) != math.Float64bits(wb) {
				t.Fatalf("n=%d t=%d: (%v, %v), stats.Mean (%v, %v)", n, cut, a, b, wa, wb)
			}
		}
	}
}
