package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the WAL's second durability primitive: an append-only log of
// opaque payloads, for state machines whose records are not tsdb points —
// the control plane journals tenant registrations and async-operation
// transitions through it so a SIGKILLed server restarts with every
// acknowledged state change intact.
//
// Records reuse the point-WAL's framing ([4B length][4B CRC-32C][payload])
// and crash semantics: every Append is fsynced before it returns (journal
// records are rare, low-volume state transitions, so group commit would
// buy nothing), and opening a journal replays intact records and
// truncates a torn tail — the expected signature of a crash mid-write —
// back to the last whole record. Compaction is whole-file: Rewrite
// serializes the caller's current live state to a temp file and renames
// it over the journal atomically.
type Journal struct {
	path string

	mu     sync.Mutex
	f      *os.File
	size   int64
	closed bool
}

// journalMaxPayload bounds one record so a corrupt length field cannot
// drive a multi-gigabyte allocation during replay.
const journalMaxPayload = 16 << 20

// OpenJournal opens (creating if needed) the journal at path and replays
// it: every intact record's payload is passed to apply in append order.
// A torn or corrupt tail is truncated back to the last intact record.
// apply may be nil (replayed records are discarded, e.g. for a fresh
// rewrite). An apply error aborts the open.
func OpenJournal(path string, apply func(payload []byte) error) (*Journal, ReplayStats, error) {
	var stats ReplayStats
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, stats, fmt.Errorf("wal: creating journal dir: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, fmt.Errorf("wal: reading journal: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, size, derr := frame(data[off:], journalMaxPayload)
		if derr != nil {
			// Torn tail: drop everything from the first bad record and
			// truncate so appends resume from intact state.
			stats.TornTail = true
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return nil, stats, fmt.Errorf("wal: truncating torn journal tail: %w", terr)
			}
			break
		}
		if apply != nil {
			if aerr := apply(payload); aerr != nil {
				return nil, stats, fmt.Errorf("wal: replaying journal record %d: %w", stats.Records, aerr)
			}
		}
		stats.Records++
		off += size
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, stats, fmt.Errorf("wal: stat journal: %w", err)
	}
	return &Journal{path: path, f: f, size: st.Size()}, stats, nil
}

// ReplayStats summarizes what opening a journal found.
type ReplayStats struct {
	// Records is how many intact records were replayed.
	Records int
	// TornTail reports the file ended in a partial or corrupt record
	// (a crash landed mid-write) and was truncated back to intact state.
	TornTail bool
}

// Append durably appends one payload: the record is written and fsynced
// before Append returns, so an acknowledged state transition survives an
// immediate SIGKILL.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > journalMaxPayload {
		return fmt.Errorf("wal: journal payload must be 1..%d bytes, got %d", journalMaxPayload, len(payload))
	}
	rec := appendFrame(append(make([]byte, recordHeaderSize, recordHeaderSize+len(payload)), payload...), 0)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: append to closed journal")
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("wal: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: journal fsync: %w", err)
	}
	j.size += int64(len(rec))
	return nil
}

// Size returns the journal file's current size in bytes — the compaction
// trigger callers poll.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Rewrite compacts the journal to exactly payloads, in order: they are
// written to a temp file, fsynced, and atomically renamed over the
// journal. A crash at any point leaves either the old or the new file,
// never a mix. The caller passes its current live state (e.g. one record
// per surviving operation), discarding superseded transitions.
func (j *Journal) Rewrite(payloads [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: rewrite of closed journal")
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: journal rewrite: %w", err)
	}
	var buf []byte
	for _, p := range payloads {
		if len(p) == 0 || len(p) > journalMaxPayload {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: journal payload must be 1..%d bytes, got %d", journalMaxPayload, len(p))
		}
		start := len(buf)
		buf = appendFrame(append(append(buf, make([]byte, recordHeaderSize)...), p...), start)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: journal rewrite write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: journal rewrite fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: journal rewrite close: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("wal: journal rewrite rename: %w", err)
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening rewritten journal: %w", err)
	}
	j.f = nf
	j.size = int64(len(buf))
	old.Close()
	return nil
}

// Close fsyncs and closes the journal. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
