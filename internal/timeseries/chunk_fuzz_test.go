package timeseries

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
	"time"
)

// FuzzChunkCodec exercises the chunk codec from both directions:
//
//  1. Treat the input as raw float64 bit patterns (NaN, ±Inf, -0.0 and
//     friends included), encode them, and require the decode and the
//     iterator to reproduce every bit exactly.
//  2. Treat the input as an untrusted chunk: decoding must never panic,
//     and truncations of a valid chunk must be rejected. A CRC-corrected
//     variant is decoded too, so mutations reach the header and payload
//     parsers instead of dying at the checksum; anything that decodes
//     must re-encode to the same values.
//
// Every chunk either arm decodes goes through both decoders — the bulk
// DecodeChunk and a point-by-point ChunkIter walk — which must agree in
// both directions: the same bits when one accepts, a rejection from each
// when one rejects.
func FuzzChunkCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed := []float64{0.001, math.NaN(), math.Inf(1), math.Copysign(0, -1), 42}
	var sb []byte
	for _, v := range seed {
		sb = binary.LittleEndian.AppendUint64(sb, math.Float64bits(v))
	}
	f.Add(sb)
	if enc, err := EncodeChunk(time.Unix(0, 0), time.Minute, seed); err == nil {
		f.Add(enc)
	}
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	// CRC-valid headers that declare more points than their payload can
	// hold, one per value mode: the bulk decoder sizes its output from the
	// header, so these must die before the allocation.
	for _, body := range [][]byte{
		{chunkMagic, 0xE8, 0x07, 0, 1, chunkModeScaled, 0, 2, 2, 2}, // 1000 points, 3 payload bytes
		{chunkMagic, 0xE8, 0x07, 0, 1, chunkModeXOR, 1, 2, 3, 4, 5, 6, 7, 8, 0xFF},
	} {
		f.Add(binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arm 1: bytes as float64 values, bounded to keep iterations fast.
		if n := len(data) / 8; n > 0 {
			if n > 4096 {
				n = 4096
			}
			values := make([]float64, n)
			for i := range values {
				values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
			enc, err := EncodeChunk(time.Unix(0, 0), time.Second, values)
			if err != nil {
				t.Fatalf("encode rejected valid input: %v", err)
			}
			_, _, got, err := decodeBothWays(t, enc)
			if err != nil {
				t.Fatalf("decode(encode(x)) failed: %v", err)
			}
			if len(got) != len(values) {
				t.Fatalf("decoded %d values, want %d", len(got), len(values))
			}
			for i := range values {
				if math.Float64bits(got[i]) != math.Float64bits(values[i]) {
					t.Fatalf("value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(values[i]))
				}
			}
			// Every truncation of a valid chunk must be rejected.
			for _, cut := range []int{len(enc) - 1, len(enc) - 4, len(enc) / 2, 1, 0} {
				if cut < 0 || cut >= len(enc) {
					continue
				}
				if _, _, _, err := DecodeChunk(enc[:cut], nil); err == nil {
					t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
				}
			}
		}

		// Arm 2a: raw bytes as a chunk — must not panic, errors are fine.
		decodeBothWays(t, data)

		// Arm 2b: CRC-corrected bytes, so the fuzzer explores the parser.
		if len(data) >= 4 {
			body := data[:len(data)-4]
			fixed := binary.LittleEndian.AppendUint32(append([]byte{}, body...),
				crc32.Checksum(body, crcTable))
			if start, step, vals, err := decodeBothWays(t, fixed); err == nil {
				enc, err := EncodeChunk(start, step, vals)
				if err != nil {
					t.Fatalf("re-encode of decoded chunk failed: %v", err)
				}
				_, _, got, err := DecodeChunk(enc, nil)
				if err != nil {
					t.Fatalf("decode of re-encoded chunk failed: %v", err)
				}
				if len(got) != len(vals) {
					t.Fatalf("re-encode round trip lost points: %d != %d", len(got), len(vals))
				}
				for i := range vals {
					if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
						t.Fatalf("re-encode value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
					}
				}
			}
		}
	})
}

// decodeBothWays decodes data with DecodeChunk and with a ChunkIter walk
// that applies the same end-of-chunk checks, requires the two to agree —
// bit-identical values, or an error from each — and returns DecodeChunk's
// result.
func decodeBothWays(t *testing.T, data []byte) (time.Time, time.Duration, []float64, error) {
	t.Helper()
	start, step, vals, err := DecodeChunk(data, nil)
	walked, werr := walkChunk(data)
	switch {
	case err == nil && werr != nil:
		t.Fatalf("iterator rejected a chunk DecodeChunk accepted: %v", werr)
	case err != nil && werr == nil:
		t.Fatalf("iterator accepted a chunk DecodeChunk rejected: %v", err)
	case err != nil:
		if !errors.Is(err, ErrChunkCorrupt) || !errors.Is(werr, ErrChunkCorrupt) {
			t.Fatalf("rejections must wrap ErrChunkCorrupt: %v / %v", err, werr)
		}
		if len(vals) != 0 {
			t.Fatalf("rejected chunk returned %d values", len(vals))
		}
		return start, step, vals, err
	}
	if len(walked) != len(vals) {
		t.Fatalf("iterator saw %d values, DecodeChunk %d", len(walked), len(vals))
	}
	for i := range vals {
		if math.Float64bits(walked[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: iterator %x, DecodeChunk %x", i, math.Float64bits(walked[i]), math.Float64bits(vals[i]))
		}
	}
	return start, step, vals, nil
}

// walkChunk is DecodeChunk spelled as the iterator's caller would: Next
// until it stops, then the count and exact-consumption checks.
func walkChunk(data []byte) ([]float64, error) {
	it, err := NewChunkIter(data)
	if err != nil {
		return nil, err
	}
	var vals []float64
	for it.Next() {
		vals = append(vals, it.Value())
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if len(vals) != it.Count() {
		return nil, fmt.Errorf("%w: %d of %d points decoded", ErrChunkCorrupt, len(vals), it.Count())
	}
	return vals, it.finish()
}
