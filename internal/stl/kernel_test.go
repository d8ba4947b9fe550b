package stl

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// oracleLoess is the per-point Loess walk the fit's geometry replaced:
// every point clamps its own window and fits it alone with loessPoint.
func oracleLoess(ys []float64, span int) []float64 {
	n := len(ys)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if span > n {
		span = n
	}
	if span < 2 {
		copy(out, ys)
		return out
	}
	half := span / 2
	for i := range ys {
		lo := i - half
		hi := lo + span
		if lo < 0 {
			lo, hi = 0, span
		}
		if hi > n {
			lo, hi = n-span, n
		}
		out[i] = loessPoint(ys, lo, hi, i)
	}
	return out
}

// loessPoint fits a weighted line over indices [lo, hi) and evaluates it at
// x = i, in window-relative coordinates u = j-i.
func loessPoint(ys []float64, lo, hi, i int) float64 {
	maxDist := math.Max(float64(i-lo), float64(hi-1-i))
	if maxDist == 0 {
		return ys[i]
	}
	var sw, swu, swy, swuu, swuy float64
	for j := lo; j < hi; j++ {
		u := float64(j - i)
		w := tricube(math.Abs(u) / maxDist)
		sw += w
		swu += w * u
		swy += w * ys[j]
		swuu += w * u * u
		swuy += w * u * ys[j]
	}
	den := sw*swuu - swu*swu
	if math.Abs(den) < 1e-12 || sw == 0 {
		if sw == 0 {
			return ys[i]
		}
		return swy / sw
	}
	// Evaluate the fit at u = 0.
	return (swy*swuu - swu*swuy) / den
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func checkLoess(t *testing.T, ys []float64, span int) {
	t.Helper()
	want := oracleLoess(ys, span)
	got := LoessInto(make([]float64, len(ys)), ys, span)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("n=%d span=%d: point %d = %v (%#x), per-point walk %v (%#x)",
			len(ys), span, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// TestLoessMatchesPerPointWalk pins the blocked interior and the memoised
// boundary geometry to the per-point walk, bit for bit, over the spans the
// detectors use and every small span, on noisy, stepped and constant data.
func TestLoessMatchesPerPointWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 60, 135, 180, 540} {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = 0.03 + 0.001*rng.NormFloat64()
			if i > n/2 {
				ys[i] += 0.005
			}
		}
		for span := 0; span <= n+2 && span < 40; span++ {
			checkLoess(t, ys, span)
		}
		for _, span := range []int{n / 8, n / 4, n/4 + 1, 231, n - 1, n} {
			checkLoess(t, ys, span)
		}
		for i := range ys {
			ys[i] = 7
		}
		checkLoess(t, ys, n/4)
	}
}

// TestLoessMemoIsBounded: cycling through more spans than the budget
// holds keeps the memo within it, and a span evicted and rebuilt smooths
// to the same bits.
func TestLoessMemoIsBounded(t *testing.T) {
	ys := benchSeasonal(540, 120)
	first := Loess(ys, 135)
	for span := 100; span < 540; span += 7 {
		Loess(ys, span)
		fitMemo.Lock()
		held := 0
		for _, f := range fitMemo.fits {
			held += f.floats()
		}
		if held != fitMemo.floats || held > fitMemoFloats {
			t.Fatalf("span %d: memo holds %d floats, accounts %d, budget %d", span, held, fitMemo.floats, fitMemoFloats)
		}
		fitMemo.Unlock()
	}
	if i, ok := sameBits(Loess(ys, 135), first); !ok {
		t.Fatalf("rebuilt geometry differs at point %d", i)
	}
}

// TestLoessMemoConcurrent smooths from several goroutines at once over
// spans that evict each other, each checked against the per-point walk
// (run it under -race).
func TestLoessMemoConcurrent(t *testing.T) {
	ys := benchSeasonal(540, 120)
	spans := []int{135, 231, 67, 300, 7, 451}
	want := make([][]float64, len(spans))
	for i, span := range spans {
		want[i] = oracleLoess(ys, span)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, len(ys))
			for k := 0; k < 24; k++ {
				i := (g + k) % len(spans)
				if at, ok := sameBits(LoessInto(dst, ys, spans[i]), want[i]); !ok {
					t.Errorf("goroutine %d span %d: point %d differs", g, spans[i], at)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzLoessInto compares LoessInto with the per-point walk bit for bit,
// over random lengths, odd and even spans, spans at and past the length,
// and degenerate spans.
func FuzzLoessInto(f *testing.F) {
	f.Add(int64(1), uint16(540), int16(135))
	f.Add(int64(2), uint16(180), int16(22))
	f.Add(int64(3), uint16(7), int16(7))
	f.Add(int64(4), uint16(9), int16(40))
	f.Add(int64(5), uint16(3), int16(1))
	f.Add(int64(6), uint16(64), int16(-3))
	f.Add(int64(7), uint16(100), int16(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, span int16) {
		rng := rand.New(rand.NewSource(seed))
		ys := make([]float64, int(n)%1200)
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		for i := range ys {
			switch rng.Intn(16) {
			case 0:
				ys[i] = 0
			case 1:
				ys[i] = math.Round(rng.Float64()*4) * scale // ties
			default:
				ys[i] = rng.NormFloat64() * scale
			}
		}
		checkLoess(t, ys, int(span))
	})
}
