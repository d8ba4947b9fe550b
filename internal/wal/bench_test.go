package wal

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fbdetect/internal/tsdb"
)

// ingestShape yields batches shaped like the end-to-end benchmark's
// ingest_ndjson stream: 400 gCPU series over two services, each batch one
// wide request carrying every series at one minute, values on the 1e-6
// grid sampled gCPU sits on (levels 0.02-0.06 with 2% noise).
type ingestShape struct {
	ids   []tsdb.MetricID
	level []float64
	rng   *rand.Rand
	step  int
	batch []tsdb.Point
}

func newIngestShape() *ingestShape {
	s := &ingestShape{rng: rand.New(rand.NewSource(1))}
	for sv := 0; sv < 2; sv++ {
		for i := 0; i < 200; i++ {
			s.ids = append(s.ids, tsdb.MetricID(fmt.Sprintf("svc%d/fn%04d/gcpu", sv, i)))
			s.level = append(s.level, 0.02+0.04*s.rng.Float64())
		}
	}
	s.batch = make([]tsdb.Point, len(s.ids))
	return s
}

// next returns the next step's batch; it is overwritten by the call after.
func (s *ingestShape) next() []tsdb.Point {
	at := t0.Add(time.Duration(s.step) * time.Minute)
	for i, id := range s.ids {
		v := s.level[i] * (1 + 0.02*s.rng.NormFloat64())
		s.batch[i] = tsdb.Point{ID: id, T: at, V: math.Round(v*1e6) / 1e6}
	}
	s.step++
	return s.batch
}

// segmentBytes sums the sizes of dir's segment files.
func segmentBytes(b *testing.B, dir string) int64 {
	segs, err := listSegments(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, idx := range segs {
		st, err := os.Stat(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			b.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// BenchmarkWALAppend appends one ingest_ndjson-shaped batch per op and
// reports the segment bytes each point cost. SyncNever keeps fsync
// latency out of the encode-and-buffer cost it measures.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	shape := newIngestShape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(shape.next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(segmentBytes(b, dir))/float64(b.N*len(shape.ids)), "bytes/point")
}

// BenchmarkWALRecover replays a 200-step ingest_ndjson-shaped log (80k
// points, one segment) into a fresh DB per op.
func BenchmarkWALRecover(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	shape := newIngestShape()
	const steps = 200
	for i := 0; i < steps; i++ {
		if err := l.Append(shape.next()); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	points := steps * len(shape.ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.ReplayedPoints != points {
			b.Fatalf("replayed %d points, want %d", stats.ReplayedPoints, points)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
}
