package wal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdetect/internal/tsdb"
)

// TestDictionaryPerSegment: with segments rotating every few records and
// a restart part way, every segment decodes on its own, spells each ID it
// uses once, and the directory recovers to the acked state. Each batch
// lists its series in a different order, so consecutive segments give
// one ID different slots.
func TestDictionaryPerSegment(t *testing.T) {
	dir := t.TempDir()
	batches := testPoints(4, 30)
	for i, b := range batches {
		batches[i] = append(b[i%len(b):], b[:i%len(b)]...)
	}
	for _, part := range [][][]tsdb.Point{batches[:20], batches[20:]} {
		l, err := Open(dir, Options{Sync: SyncAlways, MaxSegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range part {
			if err := l.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs := mustSegments(t, dir)
	if len(segs) < 4 {
		t.Fatalf("want >= 4 segments, got %v", segs)
	}
	var replayed int
	for _, idx := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "svc/sub0/gcpu"); n > 1 {
			t.Errorf("segment %d spells sub0's ID %d times, want at most once", idx, n)
		}
		alone := t.TempDir()
		if err := os.WriteFile(filepath.Join(alone, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stats RecoverStats
		if err := replay(alone, &stats, func([]tsdb.Point) error { return nil }); err != nil || stats.TornTail {
			t.Fatalf("segment %d alone: err %v, stats %+v", idx, err, stats)
		}
		replayed += stats.ReplayedRecords
	}
	if replayed != len(batches) {
		t.Errorf("segments decoded alone hold %d records, want %d", replayed, len(batches))
	}
	db, _, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, applyAll(t, batches), db)
}

// TestRotationWhileWritingStartsFreshDictionary: a batch encoded while the
// flush that fills a segment is still writing goes to the next segment,
// so it must spell its IDs again. The fsync delay holds that flush open.
func TestRotationWhileWritingStartsFreshDictionary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways, MaxSegmentBytes: 1, FsyncDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	batches := testPoints(2, 2)
	first := make(chan error)
	go func() { first <- l.Append(batches[0]) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.Append(batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []tsdb.Point
	var stats RecoverStats
	if err := replay(dir, &stats, func(pts []tsdb.Point) error {
		got = append(got, pts...)
		return nil
	}); err != nil || stats.TornTail {
		t.Fatalf("err %v, stats %+v", err, stats)
	}
	assertSamePoints(t, append(append([]tsdb.Point(nil), batches[0]...), batches[1]...), got)
}

func mustSegments(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestV1ThenV2Recover: a directory an earlier build wrote (kind-1 records,
// no segment headers) followed by this build's segments recovers exactly
// like the same batches applied in order.
func TestV1ThenV2Recover(t *testing.T) {
	dir := t.TempDir()
	batches := testPoints(5, 24)
	var seg []byte
	for i, b := range batches[:12] {
		seg = appendRecordV1(seg, b)
		if i == 5 || i == 11 {
			idx := uint64(1)
			if i == 11 {
				idx = 2
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(idx)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			seg = nil
		}
	}
	store, err := OpenStore(dir, time.Minute, Options{Sync: SyncAlways, MaxSegmentBytes: 256}, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, applyAll(t, batches[:12]), store.DB)
	for _, b := range batches[12:] {
		if _, err := store.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := mustSegments(t, dir); len(segs) < 4 {
		t.Fatalf("want v1 segments 1-2 and >= 2 v2 segments, got %v", segs)
	}
	var got []tsdb.Point
	var stats RecoverStats
	if err := replay(dir, &stats, func(pts []tsdb.Point) error {
		got = append(got, pts...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want []tsdb.Point
	for _, b := range batches {
		want = append(want, b...)
	}
	assertSamePoints(t, want, got)
	db, _, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, applyAll(t, batches), db)
}

// assertSamePoints compares replayed points bit for bit.
func assertSamePoints(t testing.TB, want, got []tsdb.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d points, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || g.T.UnixNano() != w.T.UnixNano() || math.Float64bits(g.V) != math.Float64bits(w.V) {
			t.Fatalf("point %d = {%q %d %x}, want {%q %d %x}", i,
				g.ID, g.T.UnixNano(), math.Float64bits(g.V), w.ID, w.T.UnixNano(), math.Float64bits(w.V))
		}
	}
}

// TestConcurrentAppendSnapshot races writers against back-to-back
// snapshots on tiny segments: every acked point, and nothing else, must
// come back — including points whose batch was logged just before a
// rotation and applied just after it.
func TestConcurrentAppendSnapshot(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir, time.Minute, Options{Sync: policy, BatchDelay: time.Millisecond, MaxSegmentBytes: 256}, tsdb.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			const writers, steps = 4, 200
			all := make([][][]tsdb.Point, writers)
			// Writers wait for the snapshotter every tenth batch, so
			// snapshots land all through the appends.
			var snaps atomic.Int64
			done := make(chan struct{})
			stopped := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				for i := 0; i < steps; i++ {
					var b []tsdb.Point
					for j := 0; j < 3; j++ {
						b = append(b, tsdb.Point{
							ID: tsdb.ID("svc", fmt.Sprintf("w%d-%d", w, j), "gcpu"),
							T:  t0.Add(time.Duration(i) * time.Minute),
							V:  float64(i)*0.25 + float64(j),
						})
					}
					all[w] = append(all[w], b)
				}
				wg.Add(1)
				go func(batches [][]tsdb.Point) {
					defer wg.Done()
					for i, b := range batches {
						for snaps.Load() < int64(i/10) {
							select {
							case <-stopped: // the snapshotter failed
								return
							default:
								runtime.Gosched()
							}
						}
						if _, err := store.AppendBatch(b); err != nil {
							t.Error(err)
							return
						}
					}
				}(all[w])
			}
			go func() {
				defer close(stopped)
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := store.Snapshot(); err != nil {
						t.Error(err)
						return
					}
					snaps.Add(1)
				}
			}()
			wg.Wait()
			close(done)
			<-stopped
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			db, _, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var flat [][]tsdb.Point
			for _, b := range all {
				flat = append(flat, b...)
			}
			assertSameDB(t, applyAll(t, flat), db)
		})
	}
}

// TestInterruptedCompactionRecovers: a kill between the snapshot's rename
// and the last segment deletion leaves some of the old segments beside the
// new snapshot. Whichever are left, the directory recovers to the acked
// state.
func TestInterruptedCompactionRecovers(t *testing.T) {
	batches := testPoints(4, 40)
	half := len(batches) / 2
	for left := 0; ; left++ {
		dir := t.TempDir()
		store, err := OpenStore(dir, time.Minute, Options{Sync: SyncAlways, MaxSegmentBytes: 160}, tsdb.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:half] {
			if _, err := store.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		old := map[uint64][]byte{}
		before := mustSegments(t, dir)
		for _, idx := range before {
			if old[idx], err = os.ReadFile(filepath.Join(dir, segmentName(idx))); err != nil {
				t.Fatal(err)
			}
		}
		if left > len(before) {
			store.Close()
			return
		}
		if err := store.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// Put back the newest `left` old segments, as a kill after the
		// oldest ones were deleted would leave them.
		for _, idx := range before[len(before)-left:] {
			if err := os.WriteFile(filepath.Join(dir, segmentName(idx)), old[idx], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches[half:] {
			if _, err := store.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		store.Close()
		db, _, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
		if err != nil {
			t.Fatalf("with %d old segments left: %v", left, err)
		}
		assertSameDB(t, applyAll(t, batches), db)
	}
}

// TestOverlongIDRefusedBeforeLogging: an ID the snapshot's 16-bit length
// cannot hold is refused by the WAL before anything is logged, so neither
// the segments nor a snapshot are damaged by it.
func TestOverlongIDRefusedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, time.Minute, Options{Sync: SyncAlways}, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := testPoints(3, 6)
	for _, b := range batches[:3] {
		if _, err := store.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	long := tsdb.MetricID(strings.Repeat("x", 70000))
	bad := append([]tsdb.Point{{ID: long, T: t0, V: 1}}, batches[3]...)
	if _, err := store.AppendBatch(bad); err == nil {
		t.Fatal("a 70000-byte metric ID was logged")
	}
	if _, err := store.AppendBatch([]tsdb.Point{{ID: long[:tsdb.MaxIDLen], T: t0, V: 1}}); err != nil {
		t.Fatalf("an ID of exactly the limit: %v", err)
	}
	for _, b := range batches[3:] {
		if _, err := store.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	db, _, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := applyAll(t, batches)
	if _, err := want.AppendBatch([]tsdb.Point{{ID: long[:tsdb.MaxIDLen], T: t0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, want, db)

	// The snapshot encoder refuses rather than truncates, too.
	mem := tsdb.New(time.Minute)
	if _, err := mem.AppendBatch([]tsdb.Point{{ID: long, T: t0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(t.TempDir(), mem); err == nil {
		t.Fatal("a 70000-byte metric ID was snapshotted")
	}
}

// TestUndefinedSlotIsADecodeError: a point naming a slot its segment
// never defined is a torn tail in the final segment and corruption in any
// other.
func TestUndefinedSlotIsADecodeError(t *testing.T) {
	id := tsdb.ID("svc", "sub", "gcpu")
	good := appendRecord(nil, map[tsdb.MetricID]uint64{},
		[]tsdb.Point{{ID: id, T: t0, V: 1}})
	bad := appendRecord(nil, map[tsdb.MetricID]uint64{id: 3},
		[]tsdb.Point{{ID: id, T: t0.Add(time.Minute), V: 2}})
	for _, final := range []bool{true, false} {
		dir := t.TempDir()
		segs := [][]byte{good, bad}
		if !final {
			segs = [][]byte{bad, good}
		}
		for i, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, stats, err := Recover(dir, time.Minute, tsdb.Options{}, nil)
		switch {
		case final && (err != nil || !stats.TornTail || stats.ReplayedPoints != 1):
			t.Errorf("final segment: err %v, stats %+v; want a torn tail after 1 point", err, stats)
		case !final && err == nil:
			t.Error("an undefined slot in a non-final segment recovered silently")
		}
	}
}

// TestSnapshotRotationDrainsUnderLock: a batch appended while the
// snapshot's flush is writing must not be encoded under the dictionary of
// the segment the rotation is about to close. The fsync delay holds that flush open.
func TestSnapshotRotationDrainsUnderLock(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch, BatchDelay: time.Hour, FsyncDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	batches := testPoints(2, 2)
	if err := l.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	rotated := make(chan error)
	go func() {
		_, err := l.rotateForSnapshot()
		rotated <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Append(batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := <-rotated; err != nil {
		t.Fatal(err)
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
	assertSamePoints(t, append(append([]tsdb.Point(nil), batches[0]...), batches[1]...), got)
}
