package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// Snapshot file layout (little-endian), a full serialization of the DB:
//
//	magic "FBDSNAP1\n"
//	[8B step nanos][4B series count]
//	per series: [2B ID length][ID bytes][8B start unix-nano][4B point count][points × 8B bits]
//	[4B CRC-32C of everything after the magic]
//
// The 2-byte ID length is where tsdb.MaxIDLen comes from: a DB holding a
// longer ID fails to snapshot rather than write a length that wraps.
//
// The file is written to a temp name and renamed into place, so a crash
// mid-snapshot leaves the previous snapshot intact.

var snapshotMagic = []byte("FBDSNAP1\n")

// crcWriter tees writes through a running CRC-32C.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, castagnoli, p)
	return c.w.Write(p)
}

// writeSnapshot serializes db into dir/snapshot.db atomically.
func writeSnapshot(dir string, db *tsdb.DB) error {
	tmp := filepath.Join(dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(snapshotMagic); err != nil {
		f.Close()
		return err
	}
	cw := &crcWriter{w: bw}
	var scratch [8]byte
	writeU16 := func(v uint16) {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		cw.Write(scratch[:2])
	}
	writeU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		cw.Write(scratch[:4])
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		cw.Write(scratch[:8])
	}

	ids := db.Metrics("")
	writeU64(uint64(db.Step()))
	writeU32(uint32(len(ids)))
	for _, id := range ids {
		if len(id) > tsdb.MaxIDLen {
			f.Close()
			return fmt.Errorf("wal: snapshot: metric ID of %d bytes exceeds the %d-byte limit", len(id), tsdb.MaxIDLen)
		}
		s, err := db.Full(id)
		if err != nil {
			continue // dropped between listing and read; skip
		}
		writeU16(uint16(len(id)))
		cw.Write([]byte(id))
		writeU64(uint64(s.Start.UnixNano()))
		writeU32(uint32(s.Len()))
		for _, v := range s.Values {
			writeU64(math.Float64bits(v))
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], cw.crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	return syncDir(dir)
}

// loadSnapshot restores dir/snapshot.db into db, returning the number of
// series restored. A missing snapshot is not an error (0, nil). A corrupt
// snapshot is: unlike a torn WAL tail (an expected crash artifact), the
// snapshot was written with fsync+rename, so damage means real data loss
// and recovery must not silently proceed from partial state.
func loadSnapshot(dir string, db *tsdb.DB) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	if len(data) < len(snapshotMagic)+16 || string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return 0, fmt.Errorf("wal: snapshot missing magic header")
	}
	body := data[len(snapshotMagic):]
	if len(body) < 4 {
		return 0, fmt.Errorf("wal: snapshot truncated")
	}
	payload, trailer := body[:len(body)-4], body[len(body)-4:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, fmt.Errorf("wal: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}
	off := 0
	need := func(n int) error {
		if off+n > len(payload) {
			return fmt.Errorf("wal: snapshot truncated at offset %d", off)
		}
		return nil
	}
	if err := need(12); err != nil {
		return 0, err
	}
	step := time.Duration(binary.LittleEndian.Uint64(payload[off:]))
	off += 8
	if step != db.Step() {
		return 0, fmt.Errorf("wal: snapshot step %s does not match store step %s", step, db.Step())
	}
	count := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	for i := 0; i < count; i++ {
		if err := need(2); err != nil {
			return 0, err
		}
		idLen := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if err := need(idLen + 12); err != nil {
			return 0, err
		}
		id := tsdb.MetricID(payload[off : off+idLen])
		off += idLen
		start := unixNano(int64(binary.LittleEndian.Uint64(payload[off:])))
		off += 8
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if n < 0 || n > (len(payload)-off)/8 {
			return 0, fmt.Errorf("wal: snapshot series %q: implausible point count %d", id, n)
		}
		values := make([]float64, n)
		for j := range values {
			values[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		db.Restore(id, timeseries.New(start, step, values))
	}
	if off != len(payload) {
		return count, fmt.Errorf("wal: %d trailing snapshot bytes", len(payload)-off)
	}
	return count, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
