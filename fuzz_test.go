package fbdetect

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/changepoint"
	"fbdetect/internal/sax"
)

// FuzzParseConfig: arbitrary JSON either yields a valid config or an
// error, never a panic or an invalid config, and the defaults fill only
// what the config left zero: a value the job gave is the value it runs.
func FuzzParseConfig(f *testing.F) {
	f.Add(`{"windows": {"historic": "10h", "analysis": "1h"}}`)
	f.Add(`{"threshold": 0.1}`)
	f.Add(`{`)
	f.Add(`{"windows": {"historic": "-1h", "analysis": "1h"}}`)
	f.Add(`{"alpha": 0.05, "windows": {"historic": "10h", "analysis": "1h"}}`)
	f.Add(`{"alpha": 2, "windows": {"historic": "10h", "analysis": "1h"}}`)
	f.Add(`{"metric_thresholds": {"cpu": 0.02}, "metric_relative": {"cpu": true}, "windows": {"historic": "10h", "analysis": "1h"}}`)
	f.Add(`{"root_cause": {"min_score": -3}, "windows": {"historic": "10h", "analysis": "1h"}}`)
	knobs := configKnobs()
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseConfig(strings.NewReader(s))
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseConfig returned invalid config: %v", verr)
		}
		given, defaulted := reflect.ValueOf(cfg), reflect.ValueOf(cfg.WithDefaults())
		for path, idx := range knobs {
			g, d := given.FieldByIndex(idx), defaulted.FieldByIndex(idx)
			if !g.IsZero() && !reflect.DeepEqual(g.Interface(), d.Interface()) {
				t.Errorf("WithDefaults changed %s from %v to %v", path, g, d)
			}
		}
	})
}

// fuzzSeries decodes a fuzz byte payload into a float64 series, 8 bytes
// per point. Every bit pattern is a valid float64, so the decoder gives
// the fuzzer direct reach to NaNs, infinities, denormals, and extreme
// magnitudes.
func fuzzSeries(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return xs
}

// floatBytes is the inverse of fuzzSeries, for seeding the corpus.
func floatBytes(xs ...float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// repeatFloats seeds step-like shapes: a points of va then b points of vb.
func repeatFloats(a int, va float64, b int, vb float64) []byte {
	xs := make([]float64, 0, a+b)
	for i := 0; i < a; i++ {
		xs = append(xs, va)
	}
	for i := 0; i < b; i++ {
		xs = append(xs, vb)
	}
	return floatBytes(xs...)
}

// FuzzChangepointSegmenter: the DP segmenter must uphold its structural
// invariants on any series — NaNs, constants, alternating values, extreme
// magnitudes — without panicking: split indices stay in range and sorted,
// segment bounds are respected, and the segment count honors the cap.
func FuzzChangepointSegmenter(f *testing.F) {
	f.Add(repeatFloats(10, 1, 10, 2), 4, 3)
	f.Add(repeatFloats(20, 0, 0, 0), 3, 2)
	f.Add(floatBytes(1, 2, 1, 2, 1, 2, 1, 2), 4, 1)
	f.Add(floatBytes(math.NaN(), 1, math.NaN(), 2, 3, 4, 5, 6), 3, 2)
	f.Add(floatBytes(math.Inf(1), math.Inf(-1), 1e308, -1e308, 5e-324), 2, 1)
	f.Fuzz(func(t *testing.T, data []byte, maxSegments, minSegment int) {
		if len(data) > 8*512 {
			return // cap the series length, not the value range
		}
		xs := fuzzSeries(data)
		if maxSegments > 64 {
			maxSegments = 64
		}

		cut, _ := changepoint.NormalLossSplit(xs, minSegment)
		minSeg := minSegment
		if minSeg < 1 {
			minSeg = 1
		}
		if cut != 0 && (cut < minSeg || cut > len(xs)-minSeg) {
			t.Fatalf("NormalLossSplit(%d pts, minSegment=%d) = %d out of range", len(xs), minSegment, cut)
		}

		cuts := changepoint.MultiSplit(xs, maxSegments, minSegment, 0.05)
		if !sort.IntsAreSorted(cuts) {
			t.Fatalf("MultiSplit cuts unsorted: %v", cuts)
		}
		if maxSegments >= 2 && len(cuts) > maxSegments-1 {
			t.Fatalf("MultiSplit produced %d cuts for maxSegments=%d", len(cuts), maxSegments)
		}
		for i, c := range cuts {
			if c <= 0 || c >= len(xs) {
				t.Fatalf("cut %d out of (0, %d): %v", c, len(xs), cuts)
			}
			if i > 0 && c == cuts[i-1] {
				t.Fatalf("duplicate cut: %v", cuts)
			}
		}

		res := changepoint.Detect(xs, changepoint.Options{})
		if res.Found && (res.Index < 0 || res.Index >= len(xs)) {
			t.Fatalf("Detect index %d out of range for %d points", res.Index, len(xs))
		}
	})
}

// FuzzSAXEncoder: encoding any series must not panic, and every produced
// letter must be a valid bucket index — including on adversarial input
// (NaN-only data, constant series, alternating extremes). This target
// found the int(NaN) conversion path that produced negative letters and
// made Word.String index below the alphabet.
func FuzzSAXEncoder(f *testing.F) {
	f.Add(floatBytes(1, 2, 3, 4, 5))
	f.Add(floatBytes(7, 7, 7, 7))
	f.Add(floatBytes(math.NaN(), 1, 2))
	f.Add(floatBytes(math.NaN(), math.NaN()))
	f.Add(floatBytes(math.Inf(1), math.Inf(-1), 0))
	f.Add(floatBytes(-math.MaxFloat64, math.MaxFloat64))
	f.Add(floatBytes(1e-310, 2e-310)) // denormal-scale range
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*512 {
			return
		}
		xs := fuzzSeries(data)
		// Size the range over the finite points, widened by 1e-12 as
		// the went-away detector widens it, then encode every point: NaN
		// and Inf clamp to the edge buckets.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			lo, hi = min(lo, x), max(hi, x)
		}
		enc, err := sax.NewEncoder(sax.DefaultBuckets, sax.DefaultValidityPct, lo, hi+1e-12)
		if err != nil {
			return // no finite data, or a range too wide or too narrow to split
		}
		b := enc.Buckets()
		if lo0, hiN := enc.LetterLowerBound(0), enc.LetterLowerBound(b); math.IsNaN(lo0) || math.IsNaN(hiN) || hiN <= lo0 {
			t.Fatalf("encoder accepted degenerate range [%v, %v]", lo0, hiN)
		}
		word := enc.EncodeInto(make([]int, len(xs)), make([]int, b), xs)
		for i, l := range word.Letters {
			if l < 0 || l >= b {
				t.Fatalf("letter %d at point %d (value %v) outside [0, %d)",
					l, i, xs[i], b)
			}
		}
		_ = word.String() // must not index outside the alphabet
		for l := 0; l < b; l++ {
			_ = word.Valid(l)
		}
		if word.MaxLetter() >= b {
			t.Fatalf("MaxLetter %d outside bucket range", word.MaxLetter())
		}
		half := len(xs) / 2
		ref := enc.EncodeInto(make([]int, half), make([]int, b), xs[:half])
		sub := word.SliceInto(make([]int, b), 0, half)
		for l := 0; l < b; l++ {
			if sub.Counts[l] != ref.Counts[l] {
				t.Fatalf("SliceInto count of letter %d = %d, EncodeInto of the same points = %d",
					l, sub.Counts[l], ref.Counts[l])
			}
		}
		if word.InvalidFraction(ref) < 0 || word.InvalidFraction(ref) > 1 {
			t.Fatalf("InvalidFraction outside [0, 1]")
		}
	})
}

// FuzzReadCSV: arbitrary CSV either ingests cleanly or errors; ingested
// databases answer queries without panicking.
func FuzzReadCSV(f *testing.F) {
	f.Add("time,metric,value\n2024-08-01T00:00:00Z,m,1\n")
	f.Add("time,metric,value\n")
	f.Add("x\n")
	f.Add("time,metric,value\n2024-08-01T00:00:00Z,a/b/c,1\n2024-08-01T00:01:00Z,a/b/c,2\n")
	f.Fuzz(func(t *testing.T, s string) {
		db, err := ReadCSV(strings.NewReader(s), time.Minute)
		if err != nil {
			return
		}
		for _, id := range db.Metrics("") {
			if _, err := db.Full(id); err != nil {
				t.Fatalf("ingested metric unreadable: %v", err)
			}
		}
	})
}
