package wal

import (
	"encoding/binary"
	"math"

	"fbdetect/internal/tsdb"
)

// appendRecordV1 is the fixed-width kind-1 encoder earlier logs were
// written with, kept as the oracle the v2 record is checked against and
// to build directories that mix the two.
func appendRecordV1(b []byte, pts []tsdb.Point) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, kindPointsV1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pts)))
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p.ID)))
		b = append(b, p.ID...)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.T.UnixNano()))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
	}
	return appendFrame(b, start)
}
