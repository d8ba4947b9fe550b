package stats

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The oracles below are the sort-based implementations selection
// replaced, kept as they were.

func oraclePercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func oracleMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := oraclePercentile(xs, 50)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return oraclePercentile(devs, 50)
}

func oracleTheilSen(xs []float64) (slope, intercept float64) {
	n := len(xs)
	if n < 2 {
		return 0, Mean(xs)
	}
	idxs := make([]int, 0, theilSenExactLimit)
	if n <= theilSenExactLimit {
		for i := 0; i < n; i++ {
			idxs = append(idxs, i)
		}
	} else {
		stride := float64(n-1) / float64(theilSenExactLimit-1)
		for k := 0; k < theilSenExactLimit; k++ {
			idxs = append(idxs, int(float64(k)*stride))
		}
	}
	m := len(idxs)
	slopes := make([]float64, 0, m*(m-1)/2)
	for a := 0; a < m-1; a++ {
		for bi := a + 1; bi < m; bi++ {
			i, j := idxs[a], idxs[bi]
			if j == i {
				continue
			}
			slopes = append(slopes, (xs[j]-xs[i])/float64(j-i))
		}
	}
	sort.Float64s(slopes)
	slope = PercentileSorted(slopes, 50)
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	intercept = oraclePercentile(xs, 50) - slope*oraclePercentile(idx, 50)
	return slope, intercept
}

func oracleDominantSeasonLag(xs []float64, minLag, maxLag int) (lag int, corr float64) {
	if minLag < 1 {
		minLag = 1
	}
	if maxLag >= len(xs)/2 {
		maxLag = len(xs)/2 - 1
	}
	best, bestLag := 0.0, 0
	for l := minLag; l <= maxLag; l++ {
		c := Autocorrelation(xs, l)
		if c > best {
			best, bestLag = c, l
		}
	}
	return bestLag, best
}

// sameBits reports bit-identity, with every NaN payload counted as one
// value.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

var selectPs = []float64{-5, 0, 1e-9, 1, 10, 25, 33.3, 50, 75, 90, 95, 99, 99.999, 100, 140}

// selectionInputs covers n = 1, 2, odd, even, all-equal, tie-heavy,
// sorted, reversed, and non-finite values.
func selectionInputs(rng *rand.Rand) map[string][]float64 {
	in := map[string][]float64{
		"one":       {3.5},
		"two":       {9, -2},
		"all-equal": {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
		"infs":      {math.Inf(1), 2, math.Inf(-1), 7, math.Inf(1), -3, 0.5, math.Inf(-1), 11, 12, 13, 14, 15, 16},
		"nans":      {math.NaN(), 2, 5, math.NaN(), -1, 8, 3, math.NaN(), 0.25, 6, 6, 7, -9, 10, 11, 12},
		"all-nan":   {math.NaN(), math.NaN(), math.NaN()},
		"one-nan":   {1, math.NaN()},
	}
	for _, n := range []int{3, 4, 11, 12, 13, 14, 75, 240, 301, 1000, 4097} {
		noise := make([]float64, n)
		ties := make([]float64, n)
		asc := make([]float64, n)
		desc := make([]float64, n)
		organ := make([]float64, n)
		for i := range noise {
			noise[i] = rng.NormFloat64()
			ties[i] = float64(rng.Intn(4))
			asc[i] = float64(i) * 0.5
			desc[i] = float64(n - i)
			organ[i] = float64(min(i, n-i)) // organ pipe: hard on median-of-three
		}
		in["noise-"+strconv.Itoa(n)] = noise
		in["ties-"+strconv.Itoa(n)] = ties
		in["asc-"+strconv.Itoa(n)] = asc
		in["desc-"+strconv.Itoa(n)] = desc
		in["organ-"+strconv.Itoa(n)] = organ
	}
	return in
}

// TestSelectPercentileMatchesSort: selection returns, bit for bit, what
// percentileSorted returns on the sorted input, and leaves the caller's
// slice of Percentile untouched.
func TestSelectPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, xs := range selectionInputs(rng) {
		orig := append([]float64(nil), xs...)
		for _, p := range selectPs {
			want := oraclePercentile(xs, p)
			if got := Percentile(xs, p); !sameBits(got, want) {
				t.Errorf("%s: Percentile(p=%v) = %v (%#x), sort gives %v (%#x)",
					name, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			scratch := append([]float64(nil), xs...)
			if got := selectPercentile(scratch, p); !sameBits(got, want) {
				t.Errorf("%s: selectPercentile(p=%v) = %v, sort gives %v", name, p, got, want)
			}
			// Selection permutes; it must not lose or invent a value.
			sort.Float64s(scratch)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for i := range sorted {
				if !sameBits(scratch[i], sorted[i]) {
					t.Fatalf("%s: p=%v: selection changed the multiset at sorted index %d", name, p, i)
				}
			}
		}
		for i := range xs {
			if !sameBits(xs[i], orig[i]) {
				t.Fatalf("%s: Percentile modified its input at %d", name, i)
			}
		}
	}
}

// TestSelectPercentileSignedZeros: sort.Float64s leaves the relative
// order of -0 and +0 unspecified (neither is less), so where both occur
// the results are only required to be equal as numbers; with a single
// sign of zero they are bit-identical like any other value.
func TestSelectPercentileSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	mixed := []float64{0, negZero, 1, negZero, 0, -1, 0, negZero, 2, 0, negZero, 0, -2, negZero}
	onlyNeg := []float64{negZero, negZero, -1, negZero, negZero, negZero, -3, negZero, negZero, negZero, negZero, negZero, negZero}
	for _, p := range selectPs {
		if got, want := Percentile(mixed, p), oraclePercentile(mixed, p); got != want {
			t.Errorf("mixed zeros p=%v: %v, sort gives %v", p, got, want)
		}
		if got, want := Percentile(onlyNeg, p), oraclePercentile(onlyNeg, p); !sameBits(got, want) {
			t.Errorf("negative zeros p=%v: %v (%#x), sort gives %v (%#x)",
				p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestQuickselectPlacesKth checks the partition contract directly, at
// every k of small inputs, including the sort fallback.
func TestQuickselectPlacesKth(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for name, xs := range selectionInputs(rng) {
		if len(xs) > 301 || strings.Contains(name, "nan") {
			continue // quickselect's contract excludes NaN
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for k := range xs {
			work := append([]float64(nil), xs...)
			quickselect(work, k)
			if work[k] != sorted[k] {
				t.Fatalf("%s: k=%d: got %v, want %v", name, k, work[k], sorted[k])
			}
			for i, x := range work {
				if (i < k && x > work[k]) || (i > k && x < work[k]) {
					t.Fatalf("%s: k=%d: work[%d]=%v on the wrong side of %v", name, k, i, x, work[k])
				}
			}
		}
	}
}

func TestMADMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for name, xs := range selectionInputs(rng) {
		if got, want := MAD(xs), oracleMAD(xs); !sameBits(got, want) {
			t.Errorf("%s: MAD = %v, sort gives %v", name, got, want)
		}
		if got, want := Median(xs), oraclePercentile(xs, 50); !sameBits(got, want) {
			t.Errorf("%s: Median = %v, sort gives %v", name, got, want)
		}
	}
}

// TestTheilSenMatchesSortOracle: slope and intercept bit-identical to
// the materialise-and-sort estimator, on both sides of the subsampling
// limit.
func TestTheilSenMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{2, 3, 4, 5, 60, 179, 180, 240, 511, 512, 513, 700, 1500} {
		for _, kind := range []string{"trend", "ties", "constant", "step"} {
			xs := make([]float64, n)
			for i := range xs {
				switch kind {
				case "trend":
					xs[i] = 0.03*float64(i) + rng.NormFloat64()
				case "ties":
					xs[i] = float64(rng.Intn(3))
				case "constant":
					xs[i] = 7
				case "step":
					xs[i] = math.Round((0.04+0.0008*rng.NormFloat64())*1e6) / 1e6
					if i > n/2 {
						xs[i] += 0.003
					}
				}
			}
			gs, gi := TheilSen(xs)
			ws, wi := oracleTheilSen(xs)
			if !sameBits(gs, ws) || !sameBits(gi, wi) {
				t.Errorf("n=%d %s: TheilSen = (%v, %v), oracle (%v, %v)", n, kind, gs, gi, ws, wi)
			}
		}
	}
}

// TestDominantSeasonLagMatchesPerLagLoop: the one-pass scan returns the
// lag and the correlation, bit for bit, of a per-lag Autocorrelation loop.
func TestDominantSeasonLagMatchesPerLagLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	series := map[string][]float64{
		"empty":    nil,
		"one":      {1},
		"three":    {1, 2, 1},
		"constant": make([]float64, 200),
	}
	for _, n := range []int{4, 5, 16, 17, 18, 19, 31, 240, 540} {
		seasonal := make([]float64, n)
		noise := make([]float64, n)
		quant := make([]float64, n)
		for i := range seasonal {
			seasonal[i] = 0.04*(1+0.05*math.Sin(2*math.Pi*float64(i)/120)) + 0.0008*rng.NormFloat64()
			noise[i] = rng.NormFloat64()
			quant[i] = float64(rng.Intn(3))
		}
		series["seasonal-"+strconv.Itoa(n)] = seasonal
		series["noise-"+strconv.Itoa(n)] = noise
		series["quant-"+strconv.Itoa(n)] = quant
	}
	bounds := [][2]int{{4, 270}, {-3, 10}, {0, 1}, {1, 1 << 30}, {2, 2}, {50, 40}, {100, 269}, {269, 270}}
	checked := 0
	for name, xs := range series {
		for _, b := range bounds {
			gl, gc := DominantSeasonLag(xs, b[0], b[1])
			wl, wc := oracleDominantSeasonLag(xs, b[0], b[1])
			if gl != wl || !sameBits(gc, wc) {
				t.Errorf("%s [%d,%d]: DominantSeasonLag = (%d, %v), per-lag loop (%d, %v)",
					name, b[0], b[1], gl, gc, wl, wc)
			}
			if wl != 0 {
				checked++
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d comparisons found a positive lag; the inputs do not exercise the scan", checked)
	}
}
