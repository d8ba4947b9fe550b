package timeseries

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

var chunkT0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// roundTrip encodes values and requires the decode to be bit-identical,
// returning the encoded size.
func roundTrip(t *testing.T, values []float64) int {
	t.Helper()
	enc, err := EncodeChunk(chunkT0, time.Minute, values)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	start, step, got, err := DecodeChunk(enc, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !start.Equal(chunkT0) || step != time.Minute {
		t.Fatalf("grid = (%v, %v), want (%v, %v)", start, step, chunkT0, time.Minute)
	}
	if len(got) != len(values) {
		t.Fatalf("decoded %d points, want %d", len(got), len(values))
	}
	for i := range values {
		if math.Float64bits(got[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d: got %x (%v), want %x (%v)",
				i, math.Float64bits(got[i]), got[i], math.Float64bits(values[i]), values[i])
		}
	}
	return len(enc)
}

func TestChunkRoundTripBasic(t *testing.T) {
	cases := map[string][]float64{
		"single":    {42.5},
		"constant":  {7, 7, 7, 7, 7, 7, 7, 7},
		"integers":  {1, 2, 3, 5, 8, 13, 21, 34},
		"decimal":   {0.001, 0.0012, 0.0011, 0.0013, 0.001},
		"negative":  {-1.5, -2.25, 3.75, -0.125},
		"zeros":     {0, 0, 0, 0},
		"specials":  {math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		"noisy":     {0.0010837, 0.0010912, 0.0010744, 0.0011031, 0.0010695},
		"monotonic": {1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3},
	}
	for name, values := range cases {
		values := values
		t.Run(name, func(t *testing.T) { roundTrip(t, values) })
	}
}

func TestChunkRoundTripRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		values := make([]float64, n)
		for i := range values {
			values[i] = math.Float64frombits(rng.Uint64())
		}
		roundTrip(t, values)
	}
}

func TestChunkRoundTripNegativeZero(t *testing.T) {
	// -0.0 must survive exactly; the scaled-integer mode cannot represent
	// it (int64 collapses the sign) so the encoder must fall back to XOR.
	values := []float64{1, math.Copysign(0, -1), 1, math.Copysign(0, -1)}
	roundTrip(t, values)
}

func TestChunkQuantizedCompression(t *testing.T) {
	// Sampled-counter data (k/1e5 ratios, the fleet simulator's quantized
	// gCPU shape) must hit the scaled-integer mode and stay under 2
	// bytes/point including header and CRC.
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 120)
	k := 100.0
	for i := range values {
		k += math.Round(rng.NormFloat64() * 10)
		if k < 0 {
			k = 0
		}
		values[i] = k / 1e5
	}
	size := roundTrip(t, values)
	if bpp := float64(size) / float64(len(values)); bpp > 2 {
		t.Errorf("quantized chunk = %.2f bytes/point, want <= 2 (size %d)", bpp, size)
	}
}

func TestChunkConstantCompression(t *testing.T) {
	values := make([]float64, 120)
	for i := range values {
		values[i] = 0.25
	}
	size := roundTrip(t, values)
	if bpp := float64(size) / float64(len(values)); bpp > 1 {
		t.Errorf("constant chunk = %.2f bytes/point, want <= 1", bpp)
	}
}

func TestChunkEncodeErrors(t *testing.T) {
	if _, err := EncodeChunk(chunkT0, time.Minute, nil); err == nil {
		t.Error("empty chunk encoded")
	}
	if _, err := EncodeChunk(chunkT0, 0, []float64{1}); err == nil {
		t.Error("zero step encoded")
	}
	if _, err := EncodeChunk(chunkT0, time.Minute, make([]float64, MaxChunkPoints+1)); err == nil {
		t.Error("oversized chunk encoded")
	}
}

func TestChunkTruncationRejected(t *testing.T) {
	enc, err := EncodeChunk(chunkT0, time.Minute, []float64{1, 2.5, 3, 4.25, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := DecodeChunk(enc[:cut], nil); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(enc))
		}
	}
}

func TestChunkCorruptionRejected(t *testing.T) {
	enc, err := EncodeChunk(chunkT0, time.Minute, []float64{0.5, 0.25, 0.75, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		for _, flip := range []byte{0x01, 0x80} {
			bad := make([]byte, len(enc))
			copy(bad, enc)
			bad[i] ^= flip
			if _, _, _, err := DecodeChunk(bad, nil); err == nil {
				t.Fatalf("bit flip at byte %d decoded successfully", i)
			}
		}
	}
}

// refixCRC recomputes a chunk's trailing CRC so header/payload mutations
// reach the parser instead of being rejected at the checksum.
func refixCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte{}, body...),
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

func TestChunkBadHeaderRejected(t *testing.T) {
	enc, err := EncodeChunk(chunkT0, time.Minute, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong magic.
	bad := append([]byte{}, enc...)
	bad[0] = 0x00
	if _, _, _, err := DecodeChunk(refixCRC(bad), nil); err == nil {
		t.Error("bad magic accepted")
	}
	// Inflated count: promises more points than the payload holds.
	bad = append([]byte{}, enc...)
	bad[1] = 200
	if _, _, _, err := DecodeChunk(refixCRC(bad), nil); err == nil {
		t.Error("inflated count accepted")
	}
	// Appending payload garbage must be rejected (trailing bytes).
	bad = append([]byte{}, enc[:len(enc)-4]...)
	bad = append(bad, 0xFF, 0xFF)
	if _, _, _, err := DecodeChunk(refixCRC(bad), nil); err == nil {
		t.Error("trailing payload accepted")
	}
}

// A header is trusted for the output's size only as far as the payload
// could back it: a CRC-valid chunk declaring the maximum count over a few
// payload bytes must be rejected before a megapoint buffer is allocated.
func TestChunkCountBeyondPayloadRejectedBeforeAllocating(t *testing.T) {
	for _, mode := range []byte{chunkModeScaled, chunkModeXOR} {
		body := []byte{chunkMagic}
		body = binary.AppendUvarint(body, MaxChunkPoints)
		body = append(body, 0, 1, mode) // start 0, step 1ns
		body = append(body, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, out, err := DecodeChunk(refixCRC(append(body, 0, 0, 0, 0)), nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrChunkCorrupt) || out != nil {
			t.Fatalf("mode %d: got %d values, err %v", mode, len(out), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("mode %d: rejecting allocated %d bytes", mode, grew)
		}
		if _, err := NewChunkIter(refixCRC(append(body, 0, 0, 0, 0))); !errors.Is(err, ErrChunkCorrupt) {
			t.Errorf("mode %d: iterator accepted the header: %v", mode, err)
		}
	}
}

// On a payload error DecodeChunk hands dst back at its original length
// with its contents intact; only the spare capacity may have been used.
func TestChunkDecodeErrorKeepsDst(t *testing.T) {
	enc, err := EncodeChunk(chunkT0, time.Minute, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Turn the last delta into an unterminated varint: five points decode
	// into the spare capacity before the stream is found truncated.
	bad := append([]byte{}, enc...)
	bad[len(bad)-5] |= 0x80
	dst := append(make([]float64, 0, 16), 41, 42)
	_, _, out, err := DecodeChunk(refixCRC(bad), dst)
	if !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if len(out) != 2 || out[0] != 41 || out[1] != 42 {
		t.Fatalf("out = %v, want dst's [41 42]", out)
	}
}

func TestChunkIterMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 77)
	for i := range values {
		values[i] = math.Round(rng.NormFloat64()*1000) / 100
	}
	enc, err := EncodeChunk(chunkT0, time.Minute, values)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewChunkIter(enc)
	if err != nil {
		t.Fatal(err)
	}
	if it.Count() != len(values) || !it.Start().Equal(chunkT0) || it.Step() != time.Minute {
		t.Fatalf("iter header = (%d, %v, %v)", it.Count(), it.Start(), it.Step())
	}
	i := 0
	for it.Next() {
		ts, v := it.At()
		wantTS := chunkT0.Add(time.Duration(i) * time.Minute).UnixNano()
		if ts != wantTS {
			t.Fatalf("point %d: ts %d, want %d", i, ts, wantTS)
		}
		if math.Float64bits(v) != math.Float64bits(values[i]) {
			t.Fatalf("point %d: value %v, want %v", i, v, values[i])
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(values) {
		t.Fatalf("iterated %d points, want %d", i, len(values))
	}
}

func TestChunkDecodeAppendsToDst(t *testing.T) {
	enc, err := EncodeChunk(chunkT0, time.Minute, []float64{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	dst := []float64{1, 2}
	_, _, out, err := DecodeChunk(enc, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 9, 8, 7}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestChunkDeterministicEncoding(t *testing.T) {
	values := []float64{0.001, 0.002, 0.0015, 0.001}
	a, err := EncodeChunk(chunkT0, time.Minute, values)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeChunk(chunkT0, time.Minute, values)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding is not deterministic")
	}
}

// BenchmarkDecodeChunk decodes one 120-point chunk (the store's default
// size) in each value mode: a quantized random walk, which seals in
// scaled-integer mode, and the same walk divided by 7, which no scale in
// the table represents and so seals in XOR mode.
func BenchmarkDecodeChunk(b *testing.B) {
	walk := make([]float64, 120)
	k, state := 5000.0, uint64(0x9e3779b97f4a7c15)
	for i := range walk {
		state = state*6364136223846793005 + 1442695040888963407
		k += float64(int64(state>>33)%41 - 20)
		walk[i] = k / 1e5
	}
	sevenths := make([]float64, len(walk))
	for i, v := range walk {
		sevenths[i] = v / 7
	}
	for _, bc := range []struct {
		name   string
		values []float64
		mode   byte
	}{{"scaled", walk, chunkModeScaled}, {"xor", sevenths, chunkModeXOR}} {
		b.Run(bc.name, func(b *testing.B) {
			enc, err := EncodeChunk(time.Unix(0, 0), time.Minute, bc.values)
			if err != nil {
				b.Fatal(err)
			}
			var it ChunkIter
			if err := it.init(enc); err != nil || it.mode != bc.mode {
				b.Fatalf("mode %d (err %v), want %d", it.mode, err, bc.mode)
			}
			buf := make([]float64, 0, len(bc.values))
			b.SetBytes(int64(8 * len(bc.values)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, buf, err = DecodeChunk(enc, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
