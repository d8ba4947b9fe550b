// Package wal makes the tsdb store crash-recoverable: a segmented,
// CRC-checksummed, length-prefixed binary write-ahead log with
// group-commit batching, plus snapshot/compact and recovery that rebuilds
// a DB from snapshot + tail segments while tolerating a torn final
// record.
//
// The paper's system monitors the fleet continuously (§5.1's always-on
// scans over ~800k live series); a process restart must not amnesia the
// history those scans window over. The durability discipline is the
// standard storage-engine one: every ingested batch is appended to the
// log (and, per SyncPolicy, fsynced) before it is applied to the
// in-memory store or acknowledged to the client, so after a SIGKILL the
// log replays to exactly the acknowledged state. Replay is idempotent —
// tsdb.AppendBatch skips points a snapshot already covers — which lets
// Snapshot run concurrently with appends and lets clients blindly re-send
// unacknowledged batches after a crash.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// SyncPolicy controls when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch (the default) makes Append durable at group-commit
	// boundaries: a flush+fsync happens when pending bytes reach
	// BatchBytes or the oldest pending record has waited BatchDelay.
	// Append returns after buffering; a crash can lose at most the last
	// unflushed window.
	SyncBatch SyncPolicy = iota
	// SyncAlways makes every Append return only after its record is
	// written and fsynced. Concurrent appenders are folded into one
	// fsync (group commit), so throughput degrades with fsync latency,
	// not fsync latency × writers. This is the policy the crash-recovery
	// equivalence test runs under: an acknowledged batch is durable.
	SyncAlways
	// SyncNever leaves flushing to the OS page cache (fsync only on
	// rotation, snapshot, and close). Fastest, weakest.
	SyncNever
)

// ParseSyncPolicy maps the -wal-sync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "never", "none", "os":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, batch, or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "batch"
	}
}

// Options tunes a Log. The zero value takes defaults.
type Options struct {
	// Sync is the durability policy (default SyncBatch).
	Sync SyncPolicy
	// BatchBytes triggers a group-commit flush once this many bytes are
	// pending (default 256 KiB).
	BatchBytes int
	// BatchDelay bounds how long a buffered record may wait for a flush
	// under SyncBatch (default 50ms).
	BatchDelay time.Duration
	// MaxSegmentBytes rotates to a fresh segment file once the current
	// one exceeds this size (default 8 MiB).
	MaxSegmentBytes int64
	// FsyncDelay injects a sleep before every fsync — a fault-injection
	// knob that widens the window in which a SIGKILL catches
	// acknowledged-but-unapplied state, used by the crash-recovery CI
	// job. Zero in production.
	FsyncDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchBytes <= 0 {
		o.BatchBytes = 256 << 10
	}
	if o.BatchDelay <= 0 {
		o.BatchDelay = 50 * time.Millisecond
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	return o
}

// WAL metric names (registered by Instrument).
const (
	MetricAppendedBytes     = "fbdetect_wal_appended_bytes_total"
	MetricAppendedRecords   = "fbdetect_wal_appended_records_total"
	MetricAppendedPoints    = "fbdetect_wal_appended_points_total"
	MetricFsyncs            = "fbdetect_wal_fsyncs_total"
	MetricReplayedRecords   = "fbdetect_wal_replayed_records_total"
	MetricReplayedPoints    = "fbdetect_wal_replayed_points_total"
	MetricTornTails         = "fbdetect_wal_torn_tail_total"
	MetricSnapshots         = "fbdetect_wal_snapshots_total"
	MetricCompactedSegments = "fbdetect_wal_compacted_segments_total"
)

const (
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	snapshotName = "snapshot.db"
)

func segmentName(index uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix)
}

// parseSegmentName extracts the index from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's segment indexes, sorted ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idx []uint64
	for _, e := range entries {
		if n, ok := parseSegmentName(e.Name()); ok {
			idx = append(idx, n)
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	return idx, nil
}

func unixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// Log is an append-only write-ahead log over a directory of segment
// files. Safe for concurrent Append.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File // current segment
	segIndex uint64
	segSize  int64

	buf        []byte // encoded records not yet written
	bufRecords int
	bufPoints  int
	firstWait  time.Time // when the oldest buffered record arrived
	timerArmed bool

	seq        uint64 // records enqueued
	flushedSeq uint64 // records durably flushed (per policy)
	flushing   bool   // a leader is writing outside the lock
	flushErr   error  // sticky: a failed write poisons the log
	closed     bool

	// dict gives each metric ID the current segment has logged its slot
	// (see record.go). Records are encoded under mu in the order they are
	// written, so slots are defined in file order; it is cleared when the
	// records encoded next go to a new segment.
	dict map[tsdb.MetricID]uint64

	// metrics (nil-safe when uninstrumented)
	appendedBytes   *obs.Counter
	appendedRecords *obs.Counter
	appendedPoints  *obs.Counter
	fsyncs          *obs.Counter
	snapshots       *obs.Counter
	compacted       *obs.Counter
}

// Open opens (creating if needed) a log in dir and starts a fresh segment
// after the highest existing one: an existing segment's dictionary is not
// known to it. Most callers want Recover or OpenStore instead, which
// replay existing state first.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	index := uint64(1)
	if len(segs) > 0 {
		index = segs[len(segs)-1] + 1
	}
	l := &Log{dir: dir, opts: opts, dict: map[tsdb.MetricID]uint64{}}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegment(index); err != nil {
		return nil, err
	}
	return l, nil
}

// Instrument publishes the log's append/fsync counters to reg.
func (l *Log) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.appendedBytes = reg.NewCounter(MetricAppendedBytes,
		"Bytes appended to WAL segments.", nil)
	l.appendedRecords = reg.NewCounter(MetricAppendedRecords,
		"Records (ingest batches) appended to the WAL.", nil)
	l.appendedPoints = reg.NewCounter(MetricAppendedPoints,
		"Points appended to the WAL.", nil)
	l.fsyncs = reg.NewCounter(MetricFsyncs,
		"fsync calls issued by the WAL.", nil)
	l.snapshots = reg.NewCounter(MetricSnapshots,
		"Snapshots written.", nil)
	l.compacted = reg.NewCounter(MetricCompactedSegments,
		"Segment files deleted by compaction.", nil)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// openSegment creates segment index. Caller holds l.mu or has exclusive
// access.
func (l *Log) openSegment(index uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(index)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	l.f, l.segIndex, l.segSize = f, index, 0
	return nil
}

// Append encodes pts as one record and appends it to the log. Under
// SyncAlways it returns only once the record is fsynced; under SyncBatch
// it returns once buffered (flushes ride group-commit thresholds); under
// SyncNever it returns once buffered and flushing is best-effort.
func (l *Log) Append(pts []tsdb.Point) error {
	if len(pts) == 0 {
		return nil
	}
	if err := checkBatch(pts); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	if l.flushErr != nil {
		return l.flushErr
	}
	if len(l.buf) == 0 {
		l.firstWait = time.Now()
	}
	l.buf = appendRecord(l.buf, l.dict, pts)
	l.bufRecords++
	l.bufPoints += len(pts)
	l.seq++
	target := l.seq

	switch l.opts.Sync {
	case SyncAlways:
		// Wait until a flush covers this record, becoming the leader when
		// no flush is running. Followers that enqueued while the leader
		// was in write+fsync ride the next leader's single fsync.
		for l.flushedSeq < target {
			if l.flushErr != nil {
				return l.flushErr
			}
			if l.closed {
				return fmt.Errorf("wal: log closed during append")
			}
			if !l.flushing {
				l.flushLocked(true, false)
			} else {
				l.cond.Wait()
			}
		}
		return l.flushErr
	default:
		if len(l.buf) >= l.opts.BatchBytes {
			l.flushLocked(l.opts.Sync == SyncBatch, false)
			return l.flushErr
		}
		if l.opts.Sync == SyncBatch && !l.timerArmed {
			l.timerArmed = true
			delay := l.opts.BatchDelay
			time.AfterFunc(delay, func() {
				l.mu.Lock()
				defer l.mu.Unlock()
				l.timerArmed = false
				if l.closed || len(l.buf) == 0 {
					return
				}
				l.flushLocked(true, false)
			})
		}
		return nil
	}
}

// flushLocked drains the pending buffer to the current segment as the
// flush leader: it swaps the buffer out, releases the lock for the
// write(2)+fsync, re-locks, and publishes the flushed sequence. With hold
// it keeps the lock throughout, so nothing is encoded until the flush is
// done. Caller holds l.mu; the method returns holding it. Sets l.flushErr
// on failure.
func (l *Log) flushLocked(sync, hold bool) {
	for l.flushing {
		l.cond.Wait()
	}
	if len(l.buf) == 0 || l.flushErr != nil {
		return
	}
	buf := l.buf
	records, points := l.bufRecords, l.bufPoints
	l.buf = nil
	l.bufRecords, l.bufPoints = 0, 0
	upTo := l.seq
	f := l.f
	rotateAfter := l.segSize+int64(len(buf)) >= l.opts.MaxSegmentBytes
	if rotateAfter {
		// Records encoded from here on, even while this write runs, go to
		// the next segment and its fresh dictionary.
		clear(l.dict)
	}
	if !hold {
		l.flushing = true
		l.mu.Unlock()
	}

	_, err := f.Write(buf)
	if err == nil && sync {
		if l.opts.FsyncDelay > 0 {
			time.Sleep(l.opts.FsyncDelay)
		}
		err = f.Sync()
		l.fsyncs.Inc()
	}

	if !hold {
		l.mu.Lock()
		l.flushing = false
	}
	if err != nil {
		l.flushErr = fmt.Errorf("wal: flush: %w", err)
	} else {
		l.flushedSeq = upTo
		l.segSize += int64(len(buf))
		l.appendedBytes.Add(float64(len(buf)))
		l.appendedRecords.Add(float64(records))
		l.appendedPoints.Add(float64(points))
		if rotateAfter {
			if rerr := l.rotateLocked(); rerr != nil && l.flushErr == nil {
				l.flushErr = rerr
			}
		}
	}
	l.cond.Broadcast()
}

// rotateLocked fsyncs and closes the current segment and opens the next.
// Caller holds l.mu with no flush in flight, and has cleared l.dict since
// the last record it lets go to the current segment.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync before rotate: %w", err)
	}
	l.fsyncs.Inc()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close before rotate: %w", err)
	}
	return l.openSegment(l.segIndex + 1)
}

// Sync flushes all buffered records and fsyncs the current segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: sync on closed log")
	}
	l.flushLocked(true, false)
	if l.flushErr != nil {
		return l.flushErr
	}
	// An empty buffer still forces the segment to disk (Append under
	// SyncNever may have left written-but-unsynced bytes).
	for l.flushing {
		l.cond.Wait()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.fsyncs.Inc()
	return nil
}

// Close flushes, fsyncs, and closes the log. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.flushLocked(true, false)
	for l.flushing {
		l.cond.Wait()
	}
	l.closed = true
	l.cond.Broadcast()
	err := l.flushErr
	if serr := l.f.Sync(); serr == nil {
		l.fsyncs.Inc()
	} else if err == nil {
		err = serr
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// rotateForSnapshot is step 1 of Store.Snapshot: it flushes and fsyncs
// the pending records, holding the lock so that nothing is encoded under
// the old segment's dictionary afterwards, and rotates to a fresh
// segment. It returns that segment's index: every segment below it holds
// only records logged before the call.
func (l *Log) rotateForSnapshot() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: snapshot on closed log")
	}
	l.flushLocked(true, true)
	if l.flushErr != nil {
		return 0, l.flushErr
	}
	clear(l.dict)
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.segIndex, nil
}

// compact is steps 2 and 3 of Store.Snapshot: it writes db as the
// directory's snapshot and deletes the segments below cutoff.
func (l *Log) compact(db *tsdb.DB, cutoff uint64) error {
	if err := writeSnapshot(l.dir, db); err != nil {
		return err
	}
	l.snapshots.Inc()

	segs, err := listSegments(l.dir)
	if err != nil {
		return fmt.Errorf("wal: listing segments for compaction: %w", err)
	}
	for _, idx := range segs {
		if idx >= cutoff {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segmentName(idx))); err != nil {
			return fmt.Errorf("wal: compacting segment %d: %w", idx, err)
		}
		l.compacted.Inc()
	}
	return nil
}
