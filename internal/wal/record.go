package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// On-disk record layout. Every record is framed the same way
// (little-endian):
//
//	[4B payload length][4B CRC-32C of payload][payload]
//
// and its payload's first byte is its kind. The writer writes kind 2,
// one record per appended batch:
//
//	[1B kind][uvarint point count][zigzag varint base unix-nanos][1B scale]
//	then per point:
//	[uvarint ref]             0: [uvarint ID length][ID bytes] follow and
//	                          define the segment's next dictionary slot;
//	                          k > 0: the ID in slot k-1
//	[zigzag varint]           nanoseconds since the previous point (the
//	                          first point: since the base)
//	[zigzag varint k]         the value k/scale, when scale indexes the
//	                          chunk codec's table (timeseries.ChunkScale)
//	or [8B IEEE-754 bits]     when scale is 0xFF
//
// Each segment has its own metric-ID dictionary: it starts empty, a
// series' ID is spelled out the first time the segment logs it, and every
// later point of the segment names its slot. A segment therefore decodes
// on its own, whatever became of the ones before it.
//
// The scale is the first in the chunk codec's table at which every value
// of the batch round-trips bit-exactly; a batch with none (noise, NaN,
// -0) stores raw bits.
//
// Kind 1 is the fixed-width record of earlier logs, still replayed:
//
//	[1B kind][4B point count] then per point:
//	[2B ID length][ID bytes][8B unix-nano timestamp][8B IEEE-754 bits]
//
// A record is one appended batch — group commit folds many caller batches
// into one write(2), but each batch stays one checksummed unit so replay
// can tell exactly which ingest acknowledgments the disk honored.

const (
	recordHeaderSize = 8
	kindPointsV1     = 1
	kindPoints       = 2
	// rawScale is the scale byte of a point record that stores raw bits.
	rawScale = 0xFF
	// maxRecordPayload bounds a single record so a corrupted length field
	// cannot make replay attempt a multi-gigabyte allocation.
	maxRecordPayload = 64 << 20
	// maxPointBytes is the most a point record spends on one point besides
	// its ID: a ref or an inline ID's length, a timestamp delta (at most
	// ten bytes each) and eight bytes of value.
	maxPointBytes = 2*binary.MaxVarintLen64 + 8
)

// castagnoli is the CRC-32C table (the polynomial storage systems
// conventionally use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkBatch refuses a batch replay could not take back: an ID longer
// than tsdb.MaxIDLen (the snapshot's limit), or a record that might
// exceed maxRecordPayload.
func checkBatch(pts []tsdb.Point) error {
	if err := tsdb.CheckIDLen(pts); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	size := 1 + 2*binary.MaxVarintLen64 + 1
	for _, p := range pts {
		size += maxPointBytes + len(p.ID)
	}
	if size > maxRecordPayload {
		return fmt.Errorf("wal: a batch of %d points may exceed the %d-byte record limit; split it", len(pts), maxRecordPayload)
	}
	return nil
}

// appendFrame frames the payload that starts recordHeaderSize bytes after
// start in b: it fills in the length and checksum there. The point WAL
// and the journal share this framing, [4B payload length][4B CRC-32C of
// payload][payload], little-endian, and differ only in the payload cap.
func appendFrame(b []byte, start int) []byte {
	payload := b[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// appendRecord encodes one batch of points as a point record appended to
// b. An ID dict (the segment's dictionary) has no slot for yet is written
// inline and given the next slot. pts must be non-empty and pass
// checkBatch.
func appendRecord(b []byte, dict map[tsdb.MetricID]uint64, pts []tsdb.Point) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, kindPoints)
	b = binary.AppendUvarint(b, uint64(len(pts)))
	prev := pts[0].T.UnixNano()
	b = binary.AppendVarint(b, prev)
	si := valueScale(pts)
	b = append(b, si)
	scale, _ := timeseries.ChunkScale(int(si))
	for _, p := range pts {
		if slot, ok := dict[p.ID]; ok {
			b = binary.AppendUvarint(b, slot+1)
		} else {
			// The key outlives the batch: copy it off whatever buffer the
			// caller decoded it from.
			dict[tsdb.MetricID(strings.Clone(string(p.ID)))] = uint64(len(dict))
			b = append(b, 0)
			b = binary.AppendUvarint(b, uint64(len(p.ID)))
			b = append(b, p.ID...)
		}
		t := p.T.UnixNano()
		b = binary.AppendVarint(b, t-prev)
		prev = t
		if si == rawScale {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
		} else {
			k, _ := timeseries.ScaledValue(p.V, scale)
			b = binary.AppendVarint(b, k)
		}
	}
	return appendFrame(b, start)
}

// valueScale returns the index of the first scale in the chunk codec's
// table at which every value of pts round-trips bit-exactly, or rawScale
// when none does.
func valueScale(pts []tsdb.Point) byte {
search:
	for si := 0; ; si++ {
		scale, ok := timeseries.ChunkScale(si)
		if !ok {
			return rawScale
		}
		for _, p := range pts {
			if _, ok := timeseries.ScaledValue(p.V, scale); !ok {
				continue search
			}
		}
		return byte(si)
	}
}

// frame checks the framing of the record at the head of b, whose payload
// holds at most maxPayload bytes, and returns its payload and total size.
// Truncation, an implausible length and a checksum mismatch are errors;
// the caller decides whether that means a torn tail (stop replay) or
// corruption (fail recovery).
func frame(b []byte, maxPayload int) (payload []byte, size int, err error) {
	if len(b) < recordHeaderSize {
		return nil, 0, fmt.Errorf("wal: truncated record header (%d bytes)", len(b))
	}
	payloadLen := int(binary.LittleEndian.Uint32(b))
	if payloadLen < 1 || payloadLen > maxPayload {
		return nil, 0, fmt.Errorf("wal: implausible record payload length %d", payloadLen)
	}
	if len(b) < recordHeaderSize+payloadLen {
		return nil, 0, fmt.Errorf("wal: truncated record payload (%d of %d bytes)",
			len(b)-recordHeaderSize, payloadLen)
	}
	payload = b[recordHeaderSize : recordHeaderSize+payloadLen]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, recordHeaderSize + payloadLen, nil
}

// decoder replays one segment's records in order. Its slot table is the
// segment's dictionary, so every replayed point of one series shares one
// ID string. The zero value is ready for a segment's first record.
type decoder struct {
	slots []tsdb.MetricID
	// pts is reused from record to record; tsdb.AppendBatch keeps none
	// of it.
	pts []tsdb.Point
}

// reset readies the decoder for the next segment's first record.
func (d *decoder) reset() { d.slots = d.slots[:0] }

// next decodes the record at the head of b, returning its points (valid
// until the next call) and its size.
func (d *decoder) next(b []byte) (pts []tsdb.Point, size int, err error) {
	payload, size, err := frame(b, maxRecordPayload)
	if err != nil {
		return nil, 0, err
	}
	switch payload[0] {
	case kindPoints:
		pts, err = d.decodePoints(payload)
	case kindPointsV1:
		pts, err = d.decodePointsV1(payload)
	default:
		return nil, 0, fmt.Errorf("wal: unknown record kind %d", payload[0])
	}
	if err != nil {
		return nil, 0, err
	}
	return pts, size, nil
}

// decodePoints decodes a kind-2 payload, defining the slots its inline
// IDs introduce.
func (d *decoder) decodePoints(p []byte) ([]tsdb.Point, error) {
	off := 1
	count, w := binary.Uvarint(p[off:])
	if w <= 0 {
		return nil, fmt.Errorf("wal: truncated point count")
	}
	off += w
	prev, w := binary.Varint(p[off:])
	if w <= 0 {
		return nil, fmt.Errorf("wal: truncated base timestamp")
	}
	off += w
	if off >= len(p) {
		return nil, fmt.Errorf("wal: truncated value scale")
	}
	si := p[off]
	off++
	scale, ok := timeseries.ChunkScale(int(si))
	if !ok && si != rawScale {
		return nil, fmt.Errorf("wal: bad value scale %d", si)
	}
	// Each point takes at least three bytes; reject counts the payload
	// cannot possibly hold before allocating.
	if count > uint64(len(p)-off)/3 {
		return nil, fmt.Errorf("wal: implausible point count %d in %d-byte payload", count, len(p))
	}
	pts := d.pts[:0]
	for i := 0; i < int(count); i++ {
		ref, w := binary.Uvarint(p[off:])
		if w <= 0 {
			return nil, fmt.Errorf("wal: point %d: truncated metric ref", i)
		}
		off += w
		var id tsdb.MetricID
		if ref == 0 {
			n, w := binary.Uvarint(p[off:])
			if w <= 0 || n > tsdb.MaxIDLen || n > uint64(len(p)-off-w) {
				return nil, fmt.Errorf("wal: point %d: truncated inline metric ID", i)
			}
			off += w
			id = tsdb.MetricID(p[off : off+int(n)])
			off += int(n)
			d.slots = append(d.slots, id)
		} else {
			if ref > uint64(len(d.slots)) {
				return nil, fmt.Errorf("wal: point %d: undefined metric slot %d of %d", i, ref-1, len(d.slots))
			}
			id = d.slots[ref-1]
		}
		delta, w := binary.Varint(p[off:])
		if w <= 0 {
			return nil, fmt.Errorf("wal: point %d: truncated timestamp", i)
		}
		off += w
		prev += delta
		var v float64
		if si == rawScale {
			if off+8 > len(p) {
				return nil, fmt.Errorf("wal: point %d: truncated value", i)
			}
			v = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		} else {
			k, w := binary.Varint(p[off:])
			if w <= 0 {
				return nil, fmt.Errorf("wal: point %d: truncated value", i)
			}
			off += w
			v = float64(k) / scale
		}
		pts = append(pts, tsdb.Point{ID: id, T: unixNano(prev), V: v})
	}
	d.pts = pts
	if off != len(p) {
		return nil, fmt.Errorf("wal: %d trailing payload bytes after %d points", len(p)-off, count)
	}
	return pts, nil
}

// decodePointsV1 decodes a kind-1 payload. Its IDs are its own: it
// neither reads nor defines dictionary slots.
func (d *decoder) decodePointsV1(p []byte) ([]tsdb.Point, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("wal: truncated point count")
	}
	count := int(binary.LittleEndian.Uint32(p[1:]))
	off := 5
	// Each point needs at least 18 bytes; reject counts the payload
	// cannot possibly hold before allocating.
	if count < 0 || count > (len(p)-off)/18 {
		return nil, fmt.Errorf("wal: implausible point count %d in %d-byte payload", count, len(p))
	}
	pts := d.pts[:0]
	for i := 0; i < count; i++ {
		if off+2 > len(p) {
			return nil, fmt.Errorf("wal: point %d: truncated ID length", i)
		}
		idLen := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if off+idLen+16 > len(p) {
			return nil, fmt.Errorf("wal: point %d: truncated body", i)
		}
		id := tsdb.MetricID(p[off : off+idLen])
		off += idLen
		nanos := int64(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		pts = append(pts, tsdb.Point{ID: id, T: unixNano(nanos), V: v})
	}
	d.pts = pts
	if off != len(p) {
		return nil, fmt.Errorf("wal: %d trailing payload bytes after %d points", len(p)-off, count)
	}
	return pts, nil
}
