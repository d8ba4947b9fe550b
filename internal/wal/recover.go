package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// RecoverStats summarizes what recovery found.
type RecoverStats struct {
	// SnapshotSeries is how many series the snapshot restored.
	SnapshotSeries int
	// ReplayedRecords and ReplayedPoints count WAL records applied on top
	// of the snapshot (points already covered by the snapshot still count
	// as replayed; tsdb.AppendBatch makes re-applying them a no-op).
	ReplayedRecords int
	ReplayedPoints  int
	// TornTail reports that the final segment ended in a partial or
	// corrupt record — the expected signature of a crash mid-write — and
	// was truncated back to its last intact record.
	TornTail bool
}

// Recover rebuilds a DB from dir's snapshot plus its WAL segments. The
// final segment may end in a torn record (a crash landed mid-write);
// everything after the last intact record in that segment is discarded
// and the file truncated so subsequent appends extend a clean log. A
// decode failure in any non-final segment is corruption, not a torn
// tail, and fails recovery. A point record naming a dictionary slot its
// segment never defined is such a decode failure.
//
// reg (may be nil) receives the replay counters. dbOpts tunes the
// rebuilt store (shard count).
func Recover(dir string, step time.Duration, dbOpts tsdb.Options, reg *obs.Registry) (*tsdb.DB, RecoverStats, error) {
	var stats RecoverStats
	db := tsdb.NewWithOptions(step, dbOpts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("wal: creating dir: %w", err)
	}
	n, err := loadSnapshot(dir, db)
	if err != nil {
		return nil, stats, err
	}
	stats.SnapshotSeries = n
	err = replay(dir, &stats, func(pts []tsdb.Point) error {
		_, err := db.AppendBatch(pts)
		return err
	})
	if reg != nil {
		reg.NewCounter(MetricReplayedRecords,
			"WAL records replayed during recovery.", nil).Add(float64(stats.ReplayedRecords))
		reg.NewCounter(MetricReplayedPoints,
			"Points replayed from the WAL during recovery.", nil).Add(float64(stats.ReplayedPoints))
		torn := reg.NewCounter(MetricTornTails,
			"Recoveries that found (and truncated) a torn final record.", nil)
		if stats.TornTail {
			torn.Inc()
		}
	}
	if err != nil {
		return nil, stats, err
	}
	return db, stats, nil
}

// replay decodes dir's segments in order and passes each point record's
// points (valid only during the call) to apply, counting them into stats.
// A torn tail of the final segment is truncated away.
func replay(dir string, stats *RecoverStats, apply func([]tsdb.Point) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return fmt.Errorf("wal: listing segments: %w", err)
	}
	var dec decoder
	for si, idx := range segs {
		final := si == len(segs)-1
		path := filepath.Join(dir, segmentName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: reading segment %d: %w", idx, err)
		}
		dec.reset()
		off := 0
		for off < len(data) {
			pts, size, derr := dec.next(data[off:])
			if derr != nil {
				if !final {
					return fmt.Errorf("wal: segment %d corrupt at offset %d: %w", idx, off, derr)
				}
				// Torn tail: drop everything from the first bad record and
				// truncate the file so the log resumes from intact state.
				stats.TornTail = true
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return fmt.Errorf("wal: truncating torn tail of segment %d: %w", idx, terr)
				}
				break
			}
			if err := apply(pts); err != nil {
				return fmt.Errorf("wal: replaying segment %d: %w", idx, err)
			}
			stats.ReplayedRecords++
			stats.ReplayedPoints += len(pts)
			off += size
		}
	}
	return nil
}

// Store couples a recovered DB with its open WAL: the durable ingestion
// unit a worker serves. Append is WAL-first — a batch reaches the
// in-memory store (and the caller's acknowledgment) only after the log
// accepted it under its sync policy.
type Store struct {
	DB    *tsdb.DB
	Log   *Log
	Stats RecoverStats

	// applying is read-held by AppendBatch from its log write to its
	// apply, and write-held by Snapshot across its rotation, so that
	// every batch logged below the rotation is in the DB the snapshot
	// reads.
	applying sync.RWMutex
}

// OpenStore recovers (or initializes) the store in dir and opens its WAL
// for appending. dbOpts tunes the rebuilt DB; reg (may be nil) receives
// both replay and append metrics.
func OpenStore(dir string, step time.Duration, opts Options, dbOpts tsdb.Options, reg *obs.Registry) (*Store, error) {
	db, stats, err := Recover(dir, step, dbOpts, reg)
	if err != nil {
		return nil, err
	}
	l, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	l.Instrument(reg)
	return &Store{DB: db, Log: l, Stats: stats}, nil
}

// AppendBatch logs pts durably (per the WAL's sync policy), then applies
// them to the in-memory store. It returns how many points the store
// actually appended — re-sent duplicates log again (the WAL is
// append-only) but apply as no-ops, which keeps recovery idempotent. The
// signature mirrors tsdb.DB.AppendBatch so ingestion endpoints can serve
// either a durable or a purely in-memory store.
func (s *Store) AppendBatch(pts []tsdb.Point) (int, error) {
	s.applying.RLock()
	defer s.applying.RUnlock()
	if err := s.Log.Append(pts); err != nil {
		return 0, err
	}
	return s.DB.AppendBatch(pts)
}

// Snapshot serializes the DB to the directory's snapshot file and
// compacts fully-replayed segments. The sequence is crash-safe at every
// step:
//
//  1. wait out appends between their log write and their apply, then
//     flush+fsync pending records and rotate to a fresh segment, so every
//     earlier segment only holds data the snapshot read will see;
//  2. serialize the DB to snapshot.tmp, fsync, and atomically rename over
//     snapshot.db;
//  3. delete segments older than the rotation point.
//
// Records written between (1) and (2) land in the fresh segment and are
// usually also captured by the snapshot; replaying them is harmless
// because recovery's AppendBatch skips already-covered points, and so is
// replaying the old segments a crash inside (3) leaves behind: each
// decodes on its own dictionary.
func (s *Store) Snapshot() error {
	s.applying.Lock()
	cutoff, err := s.Log.rotateForSnapshot()
	s.applying.Unlock()
	if err != nil {
		return err
	}
	return s.Log.compact(s.DB, cutoff)
}

// Close flushes and closes the WAL. The DB stays readable.
func (s *Store) Close() error { return s.Log.Close() }
