package sax

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(1, 3, 0, 1); err == nil {
		t.Error("1 bucket should fail")
	}
	if _, err := NewEncoder(4, 3, 1, 1); err == nil {
		t.Error("empty range should fail")
	}
	if _, err := NewEncoder(4, -1, 0, 1); err == nil {
		t.Error("negative validity should fail")
	}
	if _, err := NewEncoder(4, 101, 0, 1); err == nil {
		t.Error("validity > 100 should fail")
	}
}

func TestPaperExample(t *testing.T) {
	// Paper §5.2.2: [1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1] with 4 buckets where
	// 'a'=[1,2), 'b'=[2,3)... encodes as "abcdcba".
	enc, err := NewEncoder(4, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := enc.Encode([]float64{1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1})
	if got := w.String(); got != "abcdcba" {
		t.Errorf("word = %q, want abcdcba", got)
	}
}

func TestLetterClamping(t *testing.T) {
	enc, _ := NewEncoder(10, 3, 0, 10)
	if enc.Letter(-5) != 0 {
		t.Error("below range should clamp to 0")
	}
	if enc.Letter(100) != 9 {
		t.Error("above range should clamp to last bucket")
	}
	if enc.Letter(10) != 9 {
		t.Error("at hi should map to last bucket")
	}
}

func TestLetterBounds(t *testing.T) {
	enc, _ := NewEncoder(5, 3, 0, 10)
	f := func(v float64) bool {
		l := enc.Letter(v)
		return l >= 0 && l < 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLetterLowerBound(t *testing.T) {
	enc, _ := NewEncoder(4, 3, 0, 8)
	for i, want := range []float64{0, 2, 4, 6} {
		if got := enc.LetterLowerBound(i); got != want {
			t.Errorf("LetterLowerBound(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestValidity(t *testing.T) {
	enc, _ := NewEncoder(4, 25, 0, 4) // 25% validity
	// 10 points: 6 in bucket 0, 3 in bucket 1, 1 in bucket 3.
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.1, 1.2, 1.3, 3.5}
	w := enc.Encode(xs)
	if !w.Valid(0) {
		t.Error("bucket 0 (60%) should be valid")
	}
	if !w.Valid(1) {
		t.Error("bucket 1 (30%) should be valid")
	}
	if w.Valid(3) {
		t.Error("bucket 3 (10%) should be invalid at 25%")
	}
	if w.Valid(2) {
		t.Error("empty bucket should be invalid")
	}
	vl := w.ValidLetters()
	if len(vl) != 2 || vl[0] != 0 || vl[1] != 1 {
		t.Errorf("ValidLetters = %v", vl)
	}
	if w.MaxValidLetter() != 1 || w.MinValidLetter() != 0 {
		t.Errorf("Max/MinValidLetter = %d/%d", w.MaxValidLetter(), w.MinValidLetter())
	}
	if w.MaxLetter() != 3 {
		t.Errorf("MaxLetter = %d", w.MaxLetter())
	}
}

func TestEmptyWord(t *testing.T) {
	enc, _ := NewEncoder(4, 3, 0, 1)
	w := enc.Encode(nil)
	if w.Valid(0) {
		t.Error("empty word has no valid letters")
	}
	if w.MaxValidLetter() != -1 || w.MinValidLetter() != -1 || w.MaxLetter() != -1 {
		t.Error("empty word extrema should be -1")
	}
	if w.InvalidFraction(w) != 0 {
		t.Error("empty InvalidFraction should be 0")
	}
}

func TestInvalidFraction(t *testing.T) {
	enc, _ := NewEncoder(10, 10, 0, 10)
	// History concentrated in low buckets.
	hist := make([]float64, 100)
	for i := range hist {
		hist[i] = 1.5
	}
	histWord := enc.Encode(hist)
	// Post-regression values land in a bucket invalid in history.
	post := enc.Encode([]float64{8.5, 8.6, 8.7})
	if got := post.InvalidFraction(histWord); got != 1 {
		t.Errorf("InvalidFraction = %v, want 1", got)
	}
	// Same bucket as history: fully valid.
	same := enc.Encode([]float64{1.4, 1.6})
	if got := same.InvalidFraction(histWord); got != 0 {
		t.Errorf("InvalidFraction = %v, want 0", got)
	}
}

func TestNewEncoderForData(t *testing.T) {
	if _, err := NewEncoderForData(nil); err == nil {
		t.Error("empty data should fail")
	}
	enc, err := NewEncoderForData([]float64{5, 5, 5})
	if err != nil {
		t.Fatalf("constant data should work: %v", err)
	}
	if l := enc.Letter(5); l < 0 || l >= enc.Buckets() {
		t.Errorf("constant letter out of bounds: %d", l)
	}
	enc2, err := NewEncoderForData([]float64{1, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := enc2.Range()
	if lo != 1 || hi != 9 {
		t.Errorf("range = [%v, %v]", lo, hi)
	}
	if enc2.Buckets() != DefaultBuckets {
		t.Errorf("buckets = %d", enc2.Buckets())
	}
}

func TestOutlierRobustness(t *testing.T) {
	// A single extreme outlier should not make its bucket valid at 3%.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 50 + rng.Float64()
	}
	xs[100] = 1000
	enc, err := NewEncoderForData(xs)
	if err != nil {
		t.Fatal(err)
	}
	w := enc.Encode(xs)
	outlierBucket := enc.Letter(1000)
	if w.Valid(outlierBucket) {
		t.Error("outlier bucket should be invalid")
	}
	if w.MaxValidLetter() == outlierBucket {
		t.Error("MaxValidLetter should ignore outlier")
	}
}

func TestStringRendering(t *testing.T) {
	enc, _ := NewEncoder(3, 0, 0, 3)
	w := enc.Encode([]float64{0.5, 1.5, 2.5})
	if w.String() != "abc" {
		t.Errorf("String = %q", w.String())
	}
}

// TestSliceMatchesEncode: a sub-word taken from encoded letters is the
// word Encode returns for the same stretch of the series — letters,
// counts, validity and every derived letter — for prefixes, suffixes,
// the whole word and the empty word.
func TestSliceMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		if i > 150 {
			xs[i] += 4
		}
	}
	enc, err := NewEncoderForData(xs)
	if err != nil {
		t.Fatal(err)
	}
	whole := enc.Encode(xs)
	ref := enc.Encode(xs[:100])
	for _, r := range [][2]int{{0, 240}, {0, 180}, {216, 240}, {60, 61}, {17, 17}, {239, 240}} {
		got, want := whole.Slice(r[0], r[1]), enc.Encode(xs[r[0]:r[1]])
		if len(got.Letters) != len(want.Letters) || len(got.Counts) != len(want.Counts) {
			t.Fatalf("[%d,%d): %d letters / %d counts, want %d / %d", r[0], r[1],
				len(got.Letters), len(got.Counts), len(want.Letters), len(want.Counts))
		}
		for i := range want.Letters {
			if got.Letters[i] != want.Letters[i] {
				t.Fatalf("[%d,%d): letter %d = %d, want %d", r[0], r[1], i, got.Letters[i], want.Letters[i])
			}
		}
		for l := range want.Counts {
			if got.Counts[l] != want.Counts[l] || got.Valid(l) != want.Valid(l) {
				t.Fatalf("[%d,%d): letter %d count %d valid %v, want %d %v", r[0], r[1],
					l, got.Counts[l], got.Valid(l), want.Counts[l], want.Valid(l))
			}
		}
		if got.MaxLetter() != want.MaxLetter() || got.MaxValidLetter() != want.MaxValidLetter() ||
			got.MinValidLetter() != want.MinValidLetter() || got.InvalidFraction(ref) != want.InvalidFraction(ref) {
			t.Errorf("[%d,%d): derived letters differ: %v vs %v", r[0], r[1], got, want)
		}
	}
}

// TestCountsIndexedByLetter: Counts has one entry per bucket, sums to the
// word's length, and agrees with a recount of Letters; a letter outside
// the alphabet is never valid, and MaxLetter is the highest one present.
func TestCountsIndexedByLetter(t *testing.T) {
	enc, err := NewEncoder(8, 3, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := enc.Encode([]float64{0.5, 0.5, 2.5, 5.5, 5.5, 5.5, -3, 100})
	want := []int{3, 0, 1, 0, 0, 3, 0, 1}
	if len(w.Counts) != enc.Buckets() {
		t.Fatalf("len(Counts) = %d, want %d", len(w.Counts), enc.Buckets())
	}
	for l, c := range want {
		if w.Counts[l] != c {
			t.Errorf("Counts[%d] = %d, want %d", l, w.Counts[l], c)
		}
	}
	if w.Valid(-1) || w.Valid(8) || w.Valid(1) || !w.Valid(2) {
		t.Error("validity of absent, out-of-alphabet or present letters is wrong")
	}
	if got := w.MaxLetter(); got != 7 {
		t.Errorf("MaxLetter = %d, want 7", got)
	}
	if got := enc.Encode([]float64{1.5, 0.2}).MaxLetter(); got != 1 {
		t.Errorf("MaxLetter = %d, want 1", got)
	}
}

// TestInvalidFractionCountsPoints pins InvalidFraction to its definition:
// the share of points, not of letters, whose letter is invalid in ref.
func TestInvalidFractionCountsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		hist := make([]float64, 50+rng.Intn(300))
		post := make([]float64, 1+rng.Intn(200))
		for i := range hist {
			hist[i] = rng.NormFloat64()
		}
		for i := range post {
			post[i] = rng.NormFloat64() + 3*rng.Float64()
		}
		enc, err := NewEncoder(2+rng.Intn(30), 10*rng.Float64(), -4, 7)
		if err != nil {
			t.Fatal(err)
		}
		hw, pw := enc.Encode(hist), enc.Encode(post)
		invalid := 0
		for _, l := range pw.Letters {
			if !hw.Valid(l) {
				invalid++
			}
		}
		if got, want := pw.InvalidFraction(hw), float64(invalid)/float64(len(post)); got != want {
			t.Fatalf("trial %d: InvalidFraction = %v, want %v", trial, got, want)
		}
	}
}
