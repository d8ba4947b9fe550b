package timeseries

// Chunk codec: the compressed at-rest format for sealed blocks of a
// regularly spaced series (the tsdb's sealed chunks). The design follows
// Facebook's Gorilla (Pelkonen et al., VLDB 2015), specialized for the
// regular grids this repository stores:
//
//   - Timestamps use delta-of-delta encoding. Because every series here is
//     regularly spaced, the delta-of-delta stream is degenerate — after the
//     header's (start, step) pair every delta-of-delta is zero — so the
//     stream is omitted entirely and timestamps cost 0 bits per point.
//   - Values are encoded in one of two modes, chosen per chunk at seal
//     time by whichever is smaller:
//
//     XOR mode is Gorilla's float compression: each value is XORed with
//     its predecessor and the significant bits are written under a
//     leading/trailing-zero window. It is lossless for arbitrary bit
//     patterns (NaN, ±Inf, -0.0 included) and collapses to 1 bit/point on
//     constant runs, but full-entropy mantissas (continuous noise) cost up
//     to ~9 bytes/point — white noise is incompressible.
//
//     Scaled-integer mode exploits that production counters are quantized:
//     a gCPU value is k samples out of n, a count is an integer, a latency
//     is milliseconds at fixed resolution. When every value in the chunk
//     is exactly representable as round(v*scale)/scale for one scale from
//     a fixed table, the chunk stores zigzag-varint deltas of the integers
//     k — typically 1-2 bytes/point. Exactness is verified bit-for-bit at
//     encode time, so decode is guaranteed byte-identical; chunks that
//     fail verification fall back to XOR mode.
//
// Every chunk ends with a CRC-32C of the preceding bytes, so truncated or
// corrupted chunks are rejected rather than decoded into garbage.
//
// Chunk layout:
//
//	magic (1 byte, 0xC4)
//	count (uvarint)            number of points, >= 1
//	start (zigzag varint)      unix nanoseconds of the first point
//	step  (uvarint)            nanoseconds between points, > 0
//	mode  (1 byte)             0 = XOR, 1 = scaled integer
//	payload                    mode-specific value stream
//	crc   (4 bytes LE)         CRC-32C over everything above

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"time"
)

const (
	chunkMagic      = 0xC4
	chunkModeXOR    = 0
	chunkModeScaled = 1

	// MaxChunkPoints bounds one chunk's point count; decoders reject
	// larger counts so a corrupt header cannot demand an absurd
	// allocation.
	MaxChunkPoints = 1 << 20
)

// ErrChunkCorrupt is wrapped by every decode failure: truncation, CRC
// mismatch, bad header fields, or a payload that does not carry the
// promised number of points.
var ErrChunkCorrupt = errors.New("timeseries: corrupt chunk")

var chunkCRCTable = crc32.MakeTable(crc32.Castagnoli)

// chunkScales is the scaled-integer candidate table: powers of ten (how
// humans and samplers quantize — percentages, counts over 10^k samples,
// fixed decimal resolutions) and powers of two (binary quantization).
// The table is part of the format: chunks, and the WAL's point records,
// store an index into it.
var chunkScales = buildChunkScales()

// ChunkScale returns the scale at index i of the chunk codec's table, and
// false past its end. Encoders search it in index order and take the
// first scale at which every value round-trips.
func ChunkScale(i int) (float64, bool) {
	if i < 0 || i >= len(chunkScales) {
		return 0, false
	}
	return chunkScales[i], true
}

func buildChunkScales() []float64 {
	s := make([]float64, 0, 40)
	p := 1.0
	for i := 0; i < 10; i++ { // 1, 10, ..., 1e9
		s = append(s, p)
		p *= 10
	}
	p = 2
	for i := 0; i < 30; i++ { // 2, 4, ..., 2^30
		s = append(s, p)
		p *= 2
	}
	return s
}

// ScaledValue reports whether v is exactly round(v*scale)/scale, returning
// the integer. The check reconstructs the decode-side value — including
// the int64 round trip, which collapses -0.0 to +0.0 — and compares bit
// patterns, so a true result guarantees a byte-identical decode.
func ScaledValue(v, scale float64) (int64, bool) {
	scaled := v * scale
	if math.IsNaN(scaled) || math.Abs(scaled) > 1<<53 {
		return 0, false
	}
	k := int64(math.Round(scaled))
	if math.Float64bits(float64(k)/scale) != math.Float64bits(v) {
		return 0, false
	}
	return k, true
}

// zigzag maps signed to unsigned so small-magnitude deltas stay short in
// varint form.
func zigzag(x int64) uint64   { return uint64((x << 1) ^ (x >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// bitWriter appends bits MSB-first.
type bitWriter struct {
	buf  []byte
	free uint // unused low bits in the last byte; 0 when buf ends on a boundary
}

func (w *bitWriter) writeBit(b uint64) {
	if w.free == 0 {
		w.buf = append(w.buf, 0)
		w.free = 8
	}
	w.free--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << w.free
	}
}

// writeBits writes the low n bits of v, MSB-first. n may be up to 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := n
		if take > w.free {
			take = w.free
		}
		w.free -= take
		n -= take
		w.buf[len(w.buf)-1] |= byte(v>>n<<w.free) & (1<<(take+w.free) - 1)
	}
}

// bitReader consumes bits MSB-first; reads past the end set err.
type bitReader struct {
	buf []byte
	bit int // bits consumed so far
	err error
}

// readBits returns the next n bits (1 <= n <= 64) as the low bits of the
// result. A read the buffer cannot satisfy consumes nothing, sets err and
// returns 0.
func (r *bitReader) readBits(n uint) uint64 {
	i, off := r.bit>>3, uint(r.bit&7)
	if i+9 <= len(r.buf) {
		// Away from the tail the n bits sit inside nine bytes: one
		// big-endian word, plus the head of the next byte when the read
		// starts mid-byte and runs past the word.
		v := binary.BigEndian.Uint64(r.buf[i:]) << off
		if off+n > 64 {
			v |= uint64(r.buf[i+8]) >> (8 - off)
		}
		r.bit += int(n)
		return v >> (64 - n)
	}
	if r.bit+int(n) > 8*len(r.buf) {
		r.err = fmt.Errorf("%w: value stream truncated", ErrChunkCorrupt)
		return 0
	}
	r.bit += int(n)
	var v uint64
	for n > 0 {
		take := min(n, 8-off)
		n -= take
		v = v<<take | uint64(r.buf[i]>>(8-off-take))&(1<<take-1)
		i, off = i+1, 0
	}
	return v
}

// bytesConsumed is how many payload bytes the reader has touched.
func (r *bitReader) bytesConsumed() int { return (r.bit + 7) >> 3 }

// tryScaledEncode attempts scaled-integer encoding, returning the payload
// (scale index byte + zigzag-varint integer stream) and whether any scale
// in the table represents every value exactly. The first (smallest)
// matching scale wins: smaller scales yield smaller integers and shorter
// varints.
func tryScaledEncode(values []float64) ([]byte, bool) {
	scaleIdx := -1
	var ints []int64
search:
	for si, scale := range chunkScales {
		if ints == nil {
			ints = make([]int64, len(values))
		}
		for i, v := range values {
			k, ok := ScaledValue(v, scale)
			if !ok {
				continue search
			}
			ints[i] = k
		}
		scaleIdx = si
		break
	}
	if scaleIdx < 0 {
		return nil, false
	}
	payload := make([]byte, 1, 1+len(ints)*2)
	payload[0] = byte(scaleIdx)
	prev := int64(0)
	for _, k := range ints {
		payload = binary.AppendUvarint(payload, zigzag(k-prev))
		prev = k
	}
	return payload, true
}

// xorEncode is Gorilla float-XOR compression of the value stream.
func xorEncode(values []float64) []byte {
	var w bitWriter
	prev := math.Float64bits(values[0])
	w.writeBits(prev, 64)
	var lead, trail uint
	haveWindow := false
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		xor := prev ^ cur
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		l := uint(bits.LeadingZeros64(xor))
		if l > 31 {
			l = 31 // 5-bit field; deeper leading zeros are spent as payload bits
		}
		t := uint(bits.TrailingZeros64(xor))
		if haveWindow && l >= lead && t >= trail {
			// Fits the previous window: reuse it (1 control bit).
			w.writeBit(0)
			w.writeBits(xor>>trail, 64-lead-trail)
			continue
		}
		// New window: 5 bits of leading zeros, 6 bits of significant-bit
		// count (stored minus one so 64 fits), then the significant bits.
		w.writeBit(1)
		sig := 64 - l - t
		w.writeBits(uint64(l), 5)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>t, sig)
		lead, trail, haveWindow = l, t, true
	}
	return w.buf
}

// EncodeChunk seals one regularly spaced block of values into the chunk
// format, choosing the smaller of the two value encodings. The input is
// not retained. Encoding is deterministic: the same (start, step, values)
// always yields the same bytes.
func EncodeChunk(start time.Time, step time.Duration, values []float64) ([]byte, error) {
	if len(values) == 0 {
		return nil, errors.New("timeseries: cannot encode empty chunk")
	}
	if len(values) > MaxChunkPoints {
		return nil, fmt.Errorf("timeseries: chunk of %d points exceeds max %d", len(values), MaxChunkPoints)
	}
	if step <= 0 {
		return nil, errors.New("timeseries: chunk step must be positive")
	}
	mode := byte(chunkModeXOR)
	payload := xorEncode(values)
	if scaled, ok := tryScaledEncode(values); ok && len(scaled) < len(payload) {
		mode, payload = chunkModeScaled, scaled
	}
	buf := make([]byte, 0, 16+len(payload)+4)
	buf = append(buf, chunkMagic)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	buf = binary.AppendVarint(buf, start.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(step))
	buf = append(buf, mode)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, chunkCRCTable)), nil
}

// ChunkIter streams one chunk's points without materializing them — the
// block-level iterator. Construct with NewChunkIter (which verifies the
// CRC and header), then alternate Next and At.
type ChunkIter struct {
	startNano int64
	stepNano  int64
	count     int
	i         int

	mode    byte
	payload []byte

	// Scaled-integer state.
	pos   int
	scale float64
	k     int64

	// XOR state.
	br          bitReader
	val         uint64
	lead, trail uint
	haveWindow  bool

	cur float64
	err error
}

// NewChunkIter validates the chunk's CRC and header and returns an
// iterator positioned before the first point.
func NewChunkIter(data []byte) (*ChunkIter, error) {
	it := new(ChunkIter)
	if err := it.init(data); err != nil {
		return nil, err
	}
	return it, nil
}

// init is the one chunk-header parser: it verifies the CRC, the magic,
// the count/start/step fields and the mode, and leaves it positioned
// before the first point. A count the payload cannot hold (every scaled
// point takes at least a byte after the scale index, every XOR point at
// least a bit after the first value's 64) is rejected here, so a decoder
// may size its output from the header before reading the payload.
func (it *ChunkIter) init(data []byte) error {
	// magic + minimal header + CRC.
	if len(data) < 1+1+1+1+1+4 {
		return fmt.Errorf("%w: %d bytes is too short", ErrChunkCorrupt, len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, chunkCRCTable) != binary.LittleEndian.Uint32(crcBytes) {
		return fmt.Errorf("%w: CRC mismatch", ErrChunkCorrupt)
	}
	if body[0] != chunkMagic {
		return fmt.Errorf("%w: bad magic 0x%02X", ErrChunkCorrupt, body[0])
	}
	rest := body[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count == 0 || count > MaxChunkPoints {
		return fmt.Errorf("%w: bad point count", ErrChunkCorrupt)
	}
	rest = rest[n:]
	startNano, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: bad start", ErrChunkCorrupt)
	}
	rest = rest[n:]
	stepNano, n := binary.Uvarint(rest)
	if n <= 0 || stepNano == 0 || stepNano > math.MaxInt64 {
		return fmt.Errorf("%w: bad step", ErrChunkCorrupt)
	}
	rest = rest[n:]
	if len(rest) == 0 {
		return fmt.Errorf("%w: missing mode", ErrChunkCorrupt)
	}
	mode, payload := rest[0], rest[1:]
	*it = ChunkIter{
		startNano: startNano,
		stepNano:  int64(stepNano),
		count:     int(count),
		mode:      mode,
		payload:   payload,
	}
	room := 0 // points the payload has room for
	switch mode {
	case chunkModeXOR:
		it.br = bitReader{buf: payload}
		room = 8*len(payload) - 63
	case chunkModeScaled:
		if len(payload) == 0 {
			return fmt.Errorf("%w: missing scale", ErrChunkCorrupt)
		}
		if int(payload[0]) >= len(chunkScales) {
			return fmt.Errorf("%w: bad scale index %d", ErrChunkCorrupt, payload[0])
		}
		it.scale = chunkScales[payload[0]]
		it.pos = 1
		room = len(payload) - 1
	default:
		return fmt.Errorf("%w: unknown value mode %d", ErrChunkCorrupt, mode)
	}
	if it.count > room {
		return fmt.Errorf("%w: %d points declared, payload holds at most %d", ErrChunkCorrupt, it.count, max(room, 0))
	}
	return nil
}

// Count returns the number of points the chunk holds.
func (it *ChunkIter) Count() int { return it.count }

// Start returns the chunk's first timestamp.
func (it *ChunkIter) Start() time.Time { return time.Unix(0, it.startNano) }

// Step returns the chunk's sample step.
func (it *ChunkIter) Step() time.Duration { return time.Duration(it.stepNano) }

// Next advances to the next point, reporting false at the end of the
// chunk or on a payload error (check Err).
func (it *ChunkIter) Next() bool {
	if it.err != nil || it.i >= it.count {
		return false
	}
	switch it.mode {
	case chunkModeScaled:
		u, n := binary.Uvarint(it.payload[it.pos:])
		if n <= 0 {
			it.err = errIntsTruncated()
			return false
		}
		it.pos += n
		it.k += unzigzag(u)
		it.cur = float64(it.k) / it.scale
	case chunkModeXOR:
		if it.i == 0 {
			it.val = it.br.readBits(64)
		} else {
			it.xorStep()
		}
		if it.br.err != nil {
			it.err = it.br.err
			return false
		}
		it.cur = math.Float64frombits(it.val)
	}
	it.i++
	return true
}

func errIntsTruncated() error {
	return fmt.Errorf("%w: integer stream truncated", ErrChunkCorrupt)
}

// xorStep reads one XOR-mode point after the first into it.val; a
// malformed control sequence or a truncated stream sets it.br.err.
func (it *ChunkIter) xorStep() {
	if it.br.readBits(1) == 0 {
		return
	}
	if it.br.readBits(1) == 1 {
		it.lead = uint(it.br.readBits(5))
		it.trail = 64 - it.lead - (uint(it.br.readBits(6)) + 1)
		it.haveWindow = true
	} else if !it.haveWindow {
		it.br.err = fmt.Errorf("%w: window reuse before first window", ErrChunkCorrupt)
	}
	if it.lead+it.trail <= 64 { // guard against corrupt 5/6-bit fields
		it.val ^= it.br.readBits(64-it.lead-it.trail) << it.trail
	} else {
		it.br.err = fmt.Errorf("%w: bad XOR window", ErrChunkCorrupt)
	}
}

// At returns the current point's timestamp (unix nanoseconds) and value.
// Valid after a true Next.
func (it *ChunkIter) At() (int64, float64) {
	return it.startNano + int64(it.i-1)*it.stepNano, it.cur
}

// Value returns the current value alone.
func (it *ChunkIter) Value() float64 { return it.cur }

// Err returns the first payload error encountered, if any.
func (it *ChunkIter) Err() error { return it.err }

// finish verifies the payload was consumed exactly: no trailing bytes
// beyond the declared points (a canonical-form check that also catches
// length-extended corruption the CRC would have caught anyway).
func (it *ChunkIter) finish() error {
	if it.err != nil {
		return it.err
	}
	consumed := it.pos
	if it.mode == chunkModeXOR {
		consumed = it.br.bytesConsumed()
	}
	if consumed != len(it.payload) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrChunkCorrupt, len(it.payload)-consumed)
	}
	return nil
}

// DecodeChunk decodes a whole chunk, appending its values to dst (which
// may be nil) and returning the chunk's grid alongside the extended
// slice. Decoding verifies the CRC, the header, and that the payload
// carries exactly the declared number of points. It is the bulk form of
// a ChunkIter walk — same header parser, same checks, same values bit for
// bit — with the output sized once from the header and one loop per
// value mode. On error dst is returned at its original length, but its
// spare capacity may have been written.
func DecodeChunk(data []byte, dst []float64) (start time.Time, step time.Duration, out []float64, err error) {
	var it ChunkIter
	if err := it.init(data); err != nil {
		return time.Time{}, 0, dst, err
	}
	out = slices.Grow(dst, it.count)[:len(dst)+it.count]
	if it.mode == chunkModeScaled {
		err = it.decodeScaled(out[len(dst):])
	} else {
		err = it.decodeXOR(out[len(dst):])
	}
	if err == nil {
		err = it.finish()
	}
	if err != nil {
		return time.Time{}, 0, dst, err
	}
	return it.Start(), it.Step(), out, nil
}

// decodeScaled fills vals with the chunk's scaled-integer points. One-
// and two-byte varints (deltas below 2^13 after zigzag, nearly all of a
// quantized counter's) are decoded inline; longer ones, and the tail
// where two bytes may not remain, go through binary.Uvarint.
func (it *ChunkIter) decodeScaled(vals []float64) error {
	p, pos, k, scale := it.payload, it.pos, it.k, it.scale
	for i := range vals {
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else if pos+1 < len(p) && p[pos+1] < 0x80 {
			u = uint64(p[pos]&0x7f) | uint64(p[pos+1])<<7
			pos += 2
		} else {
			v, n := binary.Uvarint(p[pos:])
			if n <= 0 {
				return errIntsTruncated()
			}
			u = v
			pos += n
		}
		k += unzigzag(u)
		vals[i] = float64(k) / scale
	}
	it.pos, it.k, it.i = pos, k, len(vals)
	return nil
}

// decodeXOR fills vals with the chunk's XOR-mode points.
func (it *ChunkIter) decodeXOR(vals []float64) error {
	it.val = it.br.readBits(64)
	vals[0] = math.Float64frombits(it.val)
	for i := 1; i < len(vals) && it.br.err == nil; i++ {
		it.xorStep()
		vals[i] = math.Float64frombits(it.val)
	}
	it.i = len(vals)
	return it.br.err
}
