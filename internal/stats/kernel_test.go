package stats

import (
	"math"
	"math/rand"
	"testing"
)

// These tests pin the multi-lag autocorrelation scan (against
// oracleDominantSeasonLag in select_test.go), the O(n log n)
// Mann-Kendall count and the one-loop likelihood-ratio test to the loops
// they replaced, bit for bit.

// oracleMannKendall is the quadratic pair scan with a map tie count.
func oracleMannKendall(xs []float64, alpha float64) MannKendallResult {
	n := len(xs)
	if n < 4 {
		return MannKendallResult{P: 1, Trend: TrendNone}
	}
	s := 0.0
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case xs[j] > xs[i]:
				s++
			case xs[j] < xs[i]:
				s--
			}
		}
	}
	ties := map[float64]int{}
	for _, x := range xs {
		ties[x]++
	}
	nf := float64(n)
	v := nf * (nf - 1) * (2*nf + 5)
	for _, c := range ties {
		if c > 1 {
			cf := float64(c)
			v -= cf * (cf - 1) * (2*cf + 5)
		}
	}
	v /= 18
	var z float64
	switch {
	case v == 0:
		z = 0
	case s > 0:
		z = (s - 1) / math.Sqrt(v)
	case s < 0:
		z = (s + 1) / math.Sqrt(v)
	}
	p := 2 * (1 - NormalCDF(math.Abs(z), 0, 1))
	res := MannKendallResult{S: s, Z: z, P: p, Trend: TrendNone}
	if p < alpha {
		if z > 0 {
			res.Trend = TrendIncreasing
		} else if z < 0 {
			res.Trend = TrendDecreasing
		}
	}
	return res
}

// oracleLikelihoodRatio is the test as three MeanVariance passes.
func oracleLikelihoodRatio(xs []float64, t int, alpha float64) LikelihoodRatioResult {
	n := len(xs)
	if t <= 0 || t >= n || n < 4 {
		return LikelihoodRatioResult{P: 1}
	}
	_, v0 := MeanVariance(xs)
	m1, _ := MeanVariance(xs[:t])
	m2, _ := MeanVariance(xs[t:])
	ss := 0.0
	for i, x := range xs {
		var d float64
		if i < t {
			d = x - m1
		} else {
			d = x - m2
		}
		ss += d * d
	}
	v1 := ss / float64(n)
	v0 = v0 * float64(n-1) / float64(n)
	if v1 <= 0 || v0 <= 0 {
		if m1 != m2 {
			return LikelihoodRatioResult{Statistic: math.Inf(1), P: 0, Reject: true}
		}
		return LikelihoodRatioResult{P: 1}
	}
	stat := float64(n) * math.Log(v0/v1)
	if stat < 0 {
		stat = 0
	}
	p := ChiSquaredSurvival(stat, 2)
	return LikelihoodRatioResult{Statistic: stat, P: p, Reject: p < alpha}
}

func checkLikelihoodRatio(t *testing.T, xs []float64, cut int) {
	t.Helper()
	got, want := LikelihoodRatioTest(xs, cut, 0.01), oracleLikelihoodRatio(xs, cut, 0.01)
	if !sameBits(got.Statistic, want.Statistic) || !sameBits(got.P, want.P) || got.Reject != want.Reject {
		t.Fatalf("n=%d t=%d: %+v, three passes %+v", len(xs), cut, got, want)
	}
}

func checkSeasonLag(t *testing.T, xs []float64, minLag, maxLag int) {
	t.Helper()
	gotLag, gotCorr := DominantSeasonLag(xs, minLag, maxLag)
	wantLag, wantCorr := oracleDominantSeasonLag(xs, minLag, maxLag)
	if gotLag != wantLag || !sameBits(gotCorr, wantCorr) {
		t.Fatalf("n=%d lags [%d, %d]: (%d, %v), one lag per pass (%d, %v)",
			len(xs), minLag, maxLag, gotLag, gotCorr, wantLag, wantCorr)
	}
}

func checkMannKendall(t *testing.T, xs []float64) {
	t.Helper()
	got, want := MannKendall(xs, 0.05), oracleMannKendall(xs, 0.05)
	if !sameBits(got.S, want.S) || !sameBits(got.Z, want.Z) || !sameBits(got.P, want.P) || got.Trend != want.Trend {
		t.Fatalf("n=%d: %+v, pair scan %+v", len(xs), got, want)
	}
}

// kernelSeries draws n points: noise around a level, a seasonal swing, a
// step, ties from a coarse grid, or (rarely) an infinity or a NaN.
func kernelSeries(rng *rand.Rand, n int, specials bool) []float64 {
	xs := make([]float64, n)
	period := 2 + rng.Intn(n/2+1)
	grid := math.Pow(10, float64(rng.Intn(4)-3))
	shape := rng.Intn(4)
	for i := range xs {
		v := rng.NormFloat64()
		switch shape {
		case 1:
			v += 3 * math.Sin(2*math.Pi*float64(i)/float64(period))
		case 2:
			if i > n/3 {
				v += 2
			}
		case 3:
			v = math.Round(v/grid/100) * grid // few distinct values
		}
		xs[i] = v
	}
	if specials && n > 0 {
		switch rng.Intn(6) {
		case 0:
			xs[rng.Intn(n)] = math.Inf(1)
		case 1:
			xs[rng.Intn(n)] = math.Inf(-1)
		case 2:
			xs[rng.Intn(n)] = math.NaN()
		case 3:
			xs[rng.Intn(n)] = math.Copysign(0, -1)
		}
	}
	return xs
}

func TestMannKendallMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 3, 4, 5, 15, 16, 17, 33, 64, 120, 240, 450, 541} {
		for rep := 0; rep < 12; rep++ {
			checkMannKendall(t, kernelSeries(rng, n, rep%2 == 1))
		}
	}
	// Constant, sorted, reversed, and all-NaN inputs.
	for _, xs := range [][]float64{
		{2, 2, 2, 2, 2},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
		{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(1), 0, math.Inf(-1), math.Inf(-1), 1},
	} {
		checkMannKendall(t, xs)
	}
}

func TestLikelihoodRatioMatchesThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 3, 4, 5, 16, 180, 540} {
		for rep := 0; rep < 6; rep++ {
			xs := kernelSeries(rng, n, rep%2 == 1)
			for _, cut := range []int{-1, 0, 1, 2, n / 3, n / 2, n - 2, n - 1, n, n + 1} {
				checkLikelihoodRatio(t, xs, cut)
			}
		}
	}
}

// FuzzLikelihoodRatio compares the one-loop test with the three passes
// bit for bit at every kind of split.
func FuzzLikelihoodRatio(f *testing.F) {
	f.Add(int64(1), uint16(180), int16(90))
	f.Add(int64(2), uint16(16), int16(2))
	f.Add(int64(3), uint16(540), int16(538))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cut int16) {
		rng := rand.New(rand.NewSource(seed))
		checkLikelihoodRatio(t, kernelSeries(rng, int(n)%1200, true), int(cut))
	})
}

// FuzzDominantSeasonLag compares the multi-lag scan with the one-lag scan
// bit for bit over random lengths and lag ranges.
func FuzzDominantSeasonLag(f *testing.F) {
	f.Add(int64(1), uint16(540), int16(4), int16(400))
	f.Add(int64(2), uint16(17), int16(1), int16(8))
	f.Add(int64(3), uint16(180), int16(2), int16(90))
	f.Add(int64(4), uint16(9), int16(-2), int16(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, minLag, maxLag int16) {
		rng := rand.New(rand.NewSource(seed))
		checkSeasonLag(t, kernelSeries(rng, int(n)%1200, true), int(minLag), int(maxLag))
	})
}

// FuzzMannKendall compares the merge-sort count with the pair scan bit
// for bit, over ties, infinities and NaNs.
func FuzzMannKendall(f *testing.F) {
	f.Add(int64(1), uint16(450))
	f.Add(int64(2), uint16(4))
	f.Add(int64(3), uint16(17))
	f.Add(int64(4), uint16(240))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkMannKendall(t, kernelSeries(rng, int(n)%1000, true))
	})
}
