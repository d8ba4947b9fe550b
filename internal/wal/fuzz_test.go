package wal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/tsdb"
)

// FuzzWALRecover feeds arbitrary bytes to recovery as the final (and
// only) WAL segment. The contract under fuzz: recovery of a final
// segment never panics and never fails — any undecodable suffix is a
// torn tail by definition, truncated away — and the surviving log must
// be clean: a second recovery sees no torn tail and identical content,
// and the log accepts appends afterwards.
func FuzzWALRecover(f *testing.F) {
	// Seed with realistic shapes: a clean log, a truncated one, bit
	// flips in header and payload, and junk.
	clean := appendRecordV1(nil, []tsdb.Point{
		{ID: tsdb.ID("svc", "sub", "gcpu"), T: time.Unix(0, 0).UTC(), V: 1.5},
		{ID: tsdb.ID("svc", "sub2", "gcpu"), T: time.Unix(60, 0).UTC(), V: 2.5},
	})
	clean = appendRecordV1(clean, []tsdb.Point{
		{ID: tsdb.ID("svc", "sub", "gcpu"), T: time.Unix(60, 0).UTC(), V: 3},
	})
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(clean[:recordHeaderSize-2])
	flipped := append([]byte(nil), clean...)
	flipped[1] ^= 0x80
	f.Add(flipped)
	flipped2 := append([]byte(nil), clean...)
	flipped2[recordHeaderSize+2] ^= 0x01
	f.Add(flipped2)
	f.Add([]byte{})
	f.Add([]byte("not a wal segment at all, just prose"))
	huge := append([]byte(nil), clean...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f // implausible length
	f.Add(huge)

	// This writer's segments: point records whose later points name
	// their IDs by dictionary slot.
	a, b := tsdb.ID("svc", "sub", "gcpu"), tsdb.ID("svc", "sub2", "gcpu")
	dict := map[tsdb.MetricID]uint64{}
	v2 := appendRecord(nil, dict, []tsdb.Point{
		{ID: a, T: time.Unix(0, 0).UTC(), V: 1.5},
		{ID: b, T: time.Unix(60, 0).UTC(), V: 2.5},
	})
	v2 = appendRecord(v2, dict, []tsdb.Point{{ID: a, T: time.Unix(60, 0).UTC(), V: 0.1 + 0.2}})
	f.Add(v2)
	f.Add(v2[:len(v2)-2])
	// A reference to a slot this segment never defined.
	f.Add(appendRecord(nil, map[tsdb.MetricID]uint64{a: 0, b: 1},
		[]tsdb.Point{{ID: b, T: time.Unix(0, 0).UTC(), V: 1}}))
	// An inline ID whose length runs past the payload, under a valid CRC.
	truncID := []byte{0, 0, 0, 0, 0, 0, 0, 0, kindPoints, 1, 0, 0, 0, 40}
	truncID = append(truncID, "svc/sub"...)
	f.Add(appendFrame(truncID, 0))

	f.Fuzz(func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, segment, 0o644); err != nil {
			t.Fatal(err)
		}
		db, stats, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
		if err != nil {
			t.Fatalf("recovery of a final segment must tolerate any tail: %v", err)
		}
		// Whatever was recovered, the truncated log must now be clean
		// and byte-stable: recovering again replays the same records
		// with no torn tail.
		db2, stats2, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		if stats2.TornTail {
			t.Fatal("second recovery still sees a torn tail after truncation")
		}
		if stats2.ReplayedRecords != stats.ReplayedRecords || stats2.ReplayedPoints != stats.ReplayedPoints {
			t.Fatalf("replay not stable: first %+v, second %+v", stats, stats2)
		}
		if db.Len() != db2.Len() {
			t.Fatalf("recovered stores differ: %d vs %d series", db.Len(), db2.Len())
		}
		// The log must accept appends after recovery.
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("open after recovery: %v", err)
		}
		pt := []tsdb.Point{{ID: "svc//cpu", T: time.Unix(1e6, 0).UTC(), V: 1}}
		if err := l.Append(pt); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
	})
}

// FuzzWALRecord is the differential check of the point record: the fuzzer's
// bytes script a sequence of batches, snapshots and restarts on a log with
// tiny segments, and replaying the directory must give back every point
// appended since the last snapshot, bit for bit — IDs repeated within and
// across records and segments, NaN payloads, -0, ±Inf, off-grid
// values, and negative and extreme timestamps included.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 1, 0, 0, 1, 1, 0, 0, 2, 1, 1, 0, 0, 2})
	f.Add([]byte{4, 5, 0xff, 2, 0x80, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 3, 7, 1, 1, 2, 2, 6, 0, 0, 2, 3})
	f.Add([]byte{1, 2, 9, 3, 0xf0, 0x10, 0, 0, 0, 0, 0, 0, 0x80, 0, 3, 2, 1, 7, 2, 3, 0xff, 0xf8, 0, 0, 0, 0, 0, 1, 6})
	f.Add([]byte("a script of plain text still decodes to some batches"))

	f.Fuzz(func(t *testing.T, script []byte) {
		// Every rotation, snapshot and restart fsyncs: bound how many one
		// input can ask for.
		r := scriptReader{b: script[:min(len(script), 256)]}
		dir := t.TempDir()
		opts := Options{Sync: SyncNever, MaxSegmentBytes: 48 + 8*int64(r.next())}
		l, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		var want []tsdb.Point // appended since the last snapshot
		var ids []tsdb.MetricID
		prevT := int64(0)
		for !r.done() {
			switch op := r.next(); op % 8 {
			case 6:
				cutoff, err := l.rotateForSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := l.compact(tsdb.New(time.Minute), cutoff); err != nil {
					t.Fatal(err)
				}
				want = want[:0]
			case 7:
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = Open(dir, opts); err != nil {
					t.Fatal(err)
				}
			default:
				batch := make([]tsdb.Point, 1+int(op/8)%6)
				for i := range batch {
					batch[i], ids, prevT = r.point(ids, prevT)
				}
				if err := l.Append(batch); err != nil {
					t.Fatal(err)
				}
				want = append(want, batch...)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var got []tsdb.Point
		var stats RecoverStats
		if err := replay(dir, &stats, func(pts []tsdb.Point) error {
			got = append(got, pts...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if stats.TornTail {
			t.Fatal("a cleanly closed log replayed with a torn tail")
		}
		assertSamePoints(t, want, got)
	})
}

// scriptReader hands out a fuzz script's bytes, then zeros.
type scriptReader struct {
	b   []byte
	off int
}

func (r *scriptReader) done() bool { return r.off >= len(r.b) }

func (r *scriptReader) next() byte {
	if r.done() {
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

func (r *scriptReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.next())
	}
	return v
}

var specialValues = []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64}

// point scripts one point: an ID from the pool or a new one, a timestamp
// relative to the previous point's or raw, and a value on a grid,
// special, or raw bits.
func (r *scriptReader) point(ids []tsdb.MetricID, prevT int64) (tsdb.Point, []tsdb.MetricID, int64) {
	var p tsdb.Point
	if c := r.next(); len(ids) > 0 && c < 0xc0 {
		p.ID = ids[int(c)%len(ids)]
	} else {
		p.ID = tsdb.MetricID(strings.Repeat("x", int(c)%5) + fmt.Sprintf("svc/fn%d/gcpu", len(ids)))
		if c == 0xff {
			p.ID = ""
		}
		ids = append(ids, p.ID)
	}
	t := prevT
	switch c := r.next(); c % 4 {
	case 1:
		t += 60e9
	case 2:
		t = int64(r.u64())
	case 3:
		t -= int64(c) * 1e9
	}
	p.T = time.Unix(0, t).UTC()
	switch c := r.next(); c % 4 {
	case 0:
		p.V = float64(int32(r.u64()>>32)) / 1e6
	case 1:
		p.V = math.Float64frombits(r.u64())
	case 2:
		p.V = specialValues[int(c/4)%len(specialValues)]
	case 3:
		p.V = float64(int8(c))
	}
	return p, ids, t
}
