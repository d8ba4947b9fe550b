// Package stl implements Seasonal and Trend decomposition using Loess
// (Cleveland et al. 1990), which FBDetect's seasonality detector uses to
// split a series into seasonal, trend, and residual components (paper
// §5.2.3 and §5.3), plus the moving-average alternative the paper compares
// against.
package stl

import (
	"math"
	"sync"
)

// Loess smooths ys with locally weighted linear regression using the
// tricube weight over a window of the given span (number of neighbors).
// Span is clamped to [2, len(ys)]. The returned slice has len(ys) points.
func Loess(ys []float64, span int) []float64 {
	return LoessInto(make([]float64, len(ys)), ys, span)
}

// LoessInto is Loess writing into dst (which must have len(ys) points and
// not alias ys) and returning it — the allocation-free form the
// decomposition loop uses to reuse scratch buffers across iterations.
//
// Every point's fit depends on ys only through two weighted sums; its
// weights and x-moments depend on the span and on where the point sits in
// its window. Interior points all sit at the window's centre and share one
// weight vector; the clamped windows at either end give each boundary
// point its own. Both are the geometry of a loessFit, built once per span
// and kept in a small memo, so a smooth pays only the y-sums.
func LoessInto(dst, ys []float64, span int) []float64 {
	n := len(ys)
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if span > n {
		span = n
	}
	if span < 2 {
		copy(dst, ys)
		return dst
	}
	return fitFor(span).into(dst, ys)
}

// loessFit is the data-free geometry of a Loess smooth with one span. A
// point's fit is a weighted line over its window, in window-relative
// coordinates u = j−i, evaluated at u = 0; its weights are
// tricube(|u|/maxDist) and only its y-sums Σw·y and Σw·u·y read the data.
// Interior points (window [i−half, i−half+span)) share w, wu = w·u and the
// x-moments. A boundary point sits at position p ≠ half of the first or
// last span points; its weights and moments are per position, summed in
// the order a per-point fit sums them, so every point gets the same bits
// as fitting it alone. A fit is immutable once built and shared between
// goroutines.
type loessFit struct {
	span, half         int
	w, wu              []float64 // interior weight and weight·u per window offset
	sw, swu, swuu, den float64   // interior x-moments
	// edge[p] holds the moments of the boundary point at window position
	// p (edge[half] is unused).
	edge []loessMoments
	// edgeW holds the weights of window positions p < half, row p at
	// [p·span, (p+1)·span). A position p > half mirrors span−1−p: the same
	// weights in reverse, because its |u| runs the other way.
	edgeW []float64
}

type loessMoments struct{ sw, swu, swuu, den float64 }

// newLoessFit builds the geometry for a span clamped to [2, len(ys)].
func newLoessFit(span int) *loessFit {
	half := span / 2
	f := &loessFit{
		span: span, half: half,
		w:     make([]float64, span),
		wu:    make([]float64, span),
		edge:  make([]loessMoments, span),
		edgeW: make([]float64, half*span),
	}
	maxDist := math.Max(float64(half), float64(span-1-half))
	for k := 0; k < span; k++ {
		u := float64(k - half)
		wk := tricube(math.Abs(u) / maxDist)
		f.w[k] = wk
		f.wu[k] = wk * u
		f.sw += wk
		f.swu += wk * u
		f.swuu += wk * u * u
	}
	f.den = f.sw*f.swuu - f.swu*f.swu
	for p := 0; p < half; p++ {
		row := f.edgeW[p*span : (p+1)*span]
		maxDist := math.Max(float64(p), float64(span-1-p))
		for j := range row {
			row[j] = tricube(math.Abs(float64(j-p)) / maxDist)
		}
	}
	for p := 0; p < span; p++ {
		if p == half {
			continue
		}
		var m loessMoments
		for j := 0; j < span; j++ {
			u := float64(j - p)
			w := f.edgeWeight(p, j)
			m.sw += w
			m.swu += w * u
			m.swuu += w * u * u
		}
		m.den = m.sw*m.swuu - m.swu*m.swu
		f.edge[p] = m
	}
	return f
}

// edgeWeight is boundary position p's weight at window offset j.
func (f *loessFit) edgeWeight(p, j int) float64 {
	if p < f.half {
		return f.edgeW[p*f.span+j]
	}
	q := f.span - 1 - p
	return f.edgeW[q*f.span+f.span-1-j]
}

// floats is the fit's size in float64s, what the memo budgets.
func (f *loessFit) floats() int { return 2*f.span + 4*len(f.edge) + len(f.edgeW) }

// into smooths ys into dst (len(ys) ≥ span) and returns dst.
func (f *loessFit) into(dst, ys []float64) []float64 {
	n := len(ys)
	dst = dst[:n]
	span, half := f.span, f.half
	// Window positions [0, half) of the first window and (half, span) of
	// the last are boundary points; everything between is interior.
	f.edgeInto(dst[:half], ys[:span], 0)
	f.interiorInto(dst[half:n-span+half+1], ys)
	f.edgeInto(dst[n-span+half+1:], ys[n-span:], half+1)
	return dst
}

// interiorInto fits the interior points, dst[k] being point half+k, three
// per pass over the shared weights: six independent add chains where a
// point alone has two, each summing in the per-point order. (Four per pass
// runs out of registers.)
func (f *loessFit) interiorInto(dst, ys []float64) {
	span, half := f.span, f.half
	w, wu := f.w[:span], f.wu[:span]
	k := 0
	for ; k+2 < len(dst); k += 3 {
		win := ys[k : k+span+2]
		var y0, y1, y2, uy0, uy1, uy2 float64
		for j, wj := range w {
			y := win[j : j+3 : j+3]
			wuj := wu[j]
			y0 += wj * y[0]
			uy0 += wuj * y[0]
			y1 += wj * y[1]
			uy1 += wuj * y[1]
			y2 += wj * y[2]
			uy2 += wuj * y[2]
		}
		dst[k] = f.interiorPoint(y0, uy0, ys[k+half])
		dst[k+1] = f.interiorPoint(y1, uy1, ys[k+1+half])
		dst[k+2] = f.interiorPoint(y2, uy2, ys[k+2+half])
	}
	for ; k < len(dst); k++ {
		win := ys[k : k+span]
		var swy, swuy float64
		for j, wj := range w {
			swy += wj * win[j]
			swuy += wu[j] * win[j]
		}
		dst[k] = f.interiorPoint(swy, swuy, ys[k+half])
	}
}

// interiorPoint solves an interior point's weighted normal equations for
// y = a + b·u from its y-sums and evaluates the line at u = 0; y is the
// point's own value, the answer when the weights carry no mass.
func (f *loessFit) interiorPoint(swy, swuy, y float64) float64 {
	if math.Abs(f.den) < 1e-12 {
		if f.sw == 0 {
			return y
		}
		return swy / f.sw
	}
	return (swy*f.swuu - f.swu*swuy) / f.den
}

// edgeInto fits the boundary points at window positions p0, p0+1, … of
// the window win (span points), dst[k] being position p0+k. Points share
// the window, so they are summed three per pass like the interior ones.
func (f *loessFit) edgeInto(dst, win []float64, p0 int) {
	span := f.span
	win = win[:span]
	k := 0
	for ; k+2 < len(dst); k += 3 {
		p := p0 + k
		u0, u1, u2 := float64(p), float64(p+1), float64(p+2)
		var y0, y1, y2, uy0, uy1, uy2 float64
		// Positions p..p+2 lie on one side of the centre: p+2 < half on
		// the left, p > half on the right.
		if p < f.half {
			r0 := f.edgeW[p*span:][:span]
			r1 := f.edgeW[(p+1)*span:][:span]
			r2 := f.edgeW[(p+2)*span:][:span]
			for j, y := range win {
				uj := float64(j)
				w0, w1, w2 := r0[j], r1[j], r2[j]
				y0 += w0 * y
				uy0 += w0 * (uj - u0) * y
				y1 += w1 * y
				uy1 += w1 * (uj - u1) * y
				y2 += w2 * y
				uy2 += w2 * (uj - u2) * y
			}
		} else {
			// Mirrored rows, read backwards.
			q := span - 1 - p
			r0 := f.edgeW[q*span:][:span]
			r1 := f.edgeW[(q-1)*span:][:span]
			r2 := f.edgeW[(q-2)*span:][:span]
			for j, y := range win {
				uj := float64(j)
				m := span - 1 - j
				w0, w1, w2 := r0[m], r1[m], r2[m]
				y0 += w0 * y
				uy0 += w0 * (uj - u0) * y
				y1 += w1 * y
				uy1 += w1 * (uj - u1) * y
				y2 += w2 * y
				uy2 += w2 * (uj - u2) * y
			}
		}
		dst[k] = f.edgePoint(p, y0, uy0, win)
		dst[k+1] = f.edgePoint(p+1, y1, uy1, win)
		dst[k+2] = f.edgePoint(p+2, y2, uy2, win)
	}
	for ; k < len(dst); k++ {
		p := p0 + k
		up := float64(p)
		var swy, swuy float64
		for j, y := range win {
			w := f.edgeWeight(p, j)
			swy += w * y
			swuy += w * (float64(j) - up) * y
		}
		dst[k] = f.edgePoint(p, swy, swuy, win)
	}
}

// edgePoint is interiorPoint for the boundary point at window position p.
func (f *loessFit) edgePoint(p int, swy, swuy float64, win []float64) float64 {
	m := f.edge[p]
	if math.Abs(m.den) < 1e-12 || m.sw == 0 {
		if m.sw == 0 {
			return win[p]
		}
		return swy / m.sw
	}
	return (swy*m.swuu - m.swu*swuy) / m.den
}

// fitFor returns the geometry for span (clamped to [2, len(ys)]), from the
// memo when a recent smooth used the same span. The memo holds geometry
// only — weights and moments, never data — and at most fitMemoFloats of
// it, dropping the least recently used span first; a span too wide for
// the budget is built per call.
func fitFor(span int) *loessFit {
	fitMemo.Lock()
	for i, f := range fitMemo.fits {
		if f.span == span {
			// Most recently used last.
			copy(fitMemo.fits[i:], fitMemo.fits[i+1:])
			fitMemo.fits[len(fitMemo.fits)-1] = f
			fitMemo.Unlock()
			return f
		}
	}
	fitMemo.Unlock()
	f := newLoessFit(span)
	size := f.floats()
	if size > fitMemoFloats {
		return f
	}
	fitMemo.Lock()
	defer fitMemo.Unlock()
	for _, g := range fitMemo.fits {
		if g.span == span {
			return g // another goroutine built it meanwhile
		}
	}
	for fitMemo.floats+size > fitMemoFloats {
		fitMemo.floats -= fitMemo.fits[0].floats()
		fitMemo.fits = append(fitMemo.fits[:0], fitMemo.fits[1:]...)
	}
	fitMemo.fits = append(fitMemo.fits, f)
	fitMemo.floats += size
	return f
}

// fitMemoFloats bounds the memo at 512 KiB of geometry: the period
// search's span over a 540-point window (≈9k floats) plus a few STL trend
// spans.
const fitMemoFloats = 1 << 16

// fitMemo is shared by every smooth in the process. What it holds is a
// pure function of the span, so no caller can see another's use of it
// except in time.
var fitMemo struct {
	sync.Mutex
	fits   []*loessFit
	floats int
}

func tricube(d float64) float64 {
	if d >= 1 {
		// Keep a tiny positive weight at the window edge so degenerate
		// two-point windows still have mass.
		return 1e-6
	}
	c := 1 - d*d*d
	return c * c * c
}

// MovingAverage returns the centered moving average of ys with the given
// window (clamped to [1, len(ys)]), the alternative seasonality handler the
// paper evaluated and rejected in favour of STL.
func MovingAverage(ys []float64, window int) []float64 {
	n := len(ys)
	if n == 0 {
		return []float64{}
	}
	return movingAverageInto(make([]float64, n), make([]float64, n+1), ys, window)
}

// movingAverageInto is MovingAverage writing into dst with a caller-owned
// prefix-sum scratch buffer (len(ys)+1), so the decomposition loop's
// low-pass filter allocates nothing per iteration.
func movingAverageInto(dst, prefix, ys []float64, window int) []float64 {
	n := len(ys)
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if window < 1 {
		window = 1
	}
	if window > n {
		window = n
	}
	half := window / 2
	// Prefix sums for O(n).
	prefix = prefix[:n+1]
	prefix[0] = 0
	for i, y := range ys {
		prefix[i+1] = prefix[i] + y
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + (window - half)
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		dst[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return dst
}
