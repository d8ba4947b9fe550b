// Package sax implements Symbolic Aggregate approXimation (SAX), the
// discretization the went-away detector uses to decide whether two parts of
// a time series are "very different" (paper §5.2.2).
//
// Unlike the original SAX of Lin et al., which buckets by Gaussian
// breakpoints after z-normalization, FBDetect's variant divides the value
// range into N equal-width buckets and additionally marks a bucket "valid"
// only if it holds at least X% of the data points, which makes the symbol
// alphabet robust to outliers.
package sax

import (
	"fmt"
	"math"
)

// DefaultBuckets and DefaultValidityPct are the production settings the
// paper reports as robust (N=20, X=3%).
const (
	DefaultBuckets     = 20
	DefaultValidityPct = 3.0
)

// Encoder discretizes real values into letter indices over a fixed value
// range. The zero Encoder is not usable; construct with NewEncoder.
type Encoder struct {
	buckets     int
	validityPct float64
	lo, hi      float64
	width       float64
}

// NewEncoder returns an encoder with n equal-width buckets spanning
// [lo, hi]. A bucket is valid in an encoded string if it holds at least
// validityPct percent of the points. Values outside [lo, hi] are clamped to
// the first or last bucket.
func NewEncoder(n int, validityPct, lo, hi float64) (*Encoder, error) {
	if n < 2 {
		return nil, fmt.Errorf("sax: need at least 2 buckets, got %d", n)
	}
	// NaN bounds would pass a plain `hi <= lo` check (every comparison with
	// NaN is false) and poison every Letter computation downstream, so
	// require finite bounds explicitly. Infinite bounds are rejected for the
	// same reason: (v-lo)/width becomes Inf/Inf = NaN.
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("sax: non-finite range [%v, %v]", lo, hi)
	}
	if hi <= lo {
		return nil, fmt.Errorf("sax: invalid range [%v, %v]", lo, hi)
	}
	if validityPct < 0 || validityPct > 100 {
		return nil, fmt.Errorf("sax: validity percent out of range: %v", validityPct)
	}
	width := (hi - lo) / float64(n)
	if math.IsInf(width, 0) {
		// The difference of near-extreme bounds can overflow to +Inf even
		// though both are finite; dividing first avoids the overflow (at the
		// cost of precision that does not matter at this scale).
		width = hi/float64(n) - lo/float64(n)
	}
	if width <= 0 || math.IsInf(width, 0) {
		return nil, fmt.Errorf("sax: degenerate bucket width for range [%v, %v]", lo, hi)
	}
	return &Encoder{
		buckets:     n,
		validityPct: validityPct,
		lo:          lo,
		hi:          hi,
		width:       width,
	}, nil
}

// NewEncoderForData returns an encoder whose range spans the min/max of the
// finite values in the given data with the default production parameters.
// It returns an error if the data holds no finite value (nothing to
// discretize); NaN and Inf points are ignored when sizing the range and
// clamp to the edge buckets when encoded.
func NewEncoderForData(data []float64) (*Encoder, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return nil, fmt.Errorf("sax: no finite data")
	}
	if hi == lo {
		// Give the single value a tiny symmetric range so a constant series
		// encodes into one bucket rather than failing.
		eps := math.Abs(lo)*1e-9 + 1e-12
		lo, hi = lo-eps, hi+eps
	}
	return NewEncoder(DefaultBuckets, DefaultValidityPct, lo, hi)
}

// Buckets returns the number of buckets.
func (e *Encoder) Buckets() int { return e.buckets }

// Range returns the encoder's [lo, hi] value range.
func (e *Encoder) Range() (lo, hi float64) { return e.lo, e.hi }

// Letter returns the bucket index (0-based) for v, clamping out-of-range
// values. NaN maps to the first bucket: every comparison against it is
// false, so without the explicit check it would fall through to an
// int(NaN) conversion, whose result is platform-defined.
func (e *Encoder) Letter(v float64) int {
	if math.IsNaN(v) || v <= e.lo {
		return 0
	}
	if v >= e.hi {
		return e.buckets - 1
	}
	i := int((v - e.lo) / e.width)
	if i < 0 {
		i = 0
	}
	if i >= e.buckets {
		i = e.buckets - 1
	}
	return i
}

// LetterLowerBound returns the inclusive lower edge of bucket i.
func (e *Encoder) LetterLowerBound(i int) float64 {
	return e.lo + float64(i)*e.width
}

// Word is an encoded series: one letter per point plus per-letter counts.
type Word struct {
	Letters []int // bucket index per point
	Counts  []int // occurrences per letter, indexed by letter
	enc     *Encoder
}

// Encode discretizes xs into a Word.
func (e *Encoder) Encode(xs []float64) Word {
	return e.EncodeInto(make([]int, len(xs)), make([]int, e.buckets), xs)
}

// EncodeInto is Encode writing the word into caller-owned storage: the
// letters into letters[:len(xs)] and the counts into counts[:Buckets()],
// which it zeroes first. The word references both.
func (e *Encoder) EncodeInto(letters, counts []int, xs []float64) Word {
	letters, counts = letters[:len(xs)], counts[:e.buckets]
	clear(counts)
	for i, v := range xs {
		l := e.Letter(v)
		letters[i] = l
		counts[l]++
	}
	return Word{Letters: letters, Counts: counts, enc: e}
}

// Slice returns the word of points [i, j) of w: what Encode would return
// for that stretch of the encoded series, without re-encoding it. The
// letters are shared with w.
func (w Word) Slice(i, j int) Word {
	return w.SliceInto(make([]int, len(w.Counts)), i, j)
}

// SliceInto is Slice counting into counts[:len(w.Counts)], which it zeroes
// first; the word references it.
func (w Word) SliceInto(counts []int, i, j int) Word {
	letters := w.Letters[i:j]
	counts = counts[:len(w.Counts)]
	clear(counts)
	for _, l := range letters {
		counts[l]++
	}
	return Word{Letters: letters, Counts: counts, enc: w.enc}
}

// Valid reports whether letter l is valid in the word: it holds at least
// the encoder's validity percentage of the points. A letter outside the
// word's alphabet occurs zero times.
func (w Word) Valid(l int) bool {
	n := len(w.Letters)
	if n == 0 {
		return false
	}
	count := 0
	if l >= 0 && l < len(w.Counts) {
		count = w.Counts[l]
	}
	return float64(count)/float64(n)*100 >= w.enc.validityPct
}

// ValidLetters returns the sorted set of valid letters.
func (w Word) ValidLetters() []int {
	var out []int
	for l := 0; l < w.enc.buckets; l++ {
		if w.Valid(l) {
			out = append(out, l)
		}
	}
	return out
}

// MaxValidLetter returns the largest valid letter, or -1 if none is valid.
func (w Word) MaxValidLetter() int {
	for l := w.enc.buckets - 1; l >= 0; l-- {
		if w.Valid(l) {
			return l
		}
	}
	return -1
}

// MinValidLetter returns the smallest valid letter, or -1 if none is valid.
func (w Word) MinValidLetter() int {
	for l := 0; l < w.enc.buckets; l++ {
		if w.Valid(l) {
			return l
		}
	}
	return -1
}

// MaxLetter returns the largest letter present (valid or not), or -1 for an
// empty word.
func (w Word) MaxLetter() int {
	for l := len(w.Counts) - 1; l >= 0; l-- {
		if w.Counts[l] > 0 {
			return l
		}
	}
	return -1
}

// InvalidFraction returns the fraction of points whose letter is invalid in
// word w when validity is judged against reference word ref. The went-away
// detector uses this to decide whether the post-regression window forms a
// new pattern unseen in history (paper §5.2.2: "if most letters in the
// post-regression SAX string are invalid").
func (w Word) InvalidFraction(ref Word) float64 {
	if len(w.Letters) == 0 {
		return 0
	}
	// Every point with the same letter shares its validity, so judge each
	// letter once and weigh it by its count.
	invalid := 0
	for l, c := range w.Counts {
		if c > 0 && !ref.Valid(l) {
			invalid += c
		}
	}
	return float64(invalid) / float64(len(w.Letters))
}

// String renders the word using letters 'a'..; buckets beyond 'z' wrap into
// upper case then digits, which is only for debugging display.
func (w Word) String() string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	buf := make([]byte, len(w.Letters))
	for i, l := range w.Letters {
		if l < len(alphabet) {
			buf[i] = alphabet[l]
		} else {
			buf[i] = '?'
		}
	}
	return string(buf)
}
