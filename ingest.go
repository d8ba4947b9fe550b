package fbdetect

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"fbdetect/internal/tsdb"
)

// csvChunkRows is the per-metric reorder window: rows for one metric are
// buffered, time-sorted, and flushed through AppendBatch in chunks of
// this size, so ingestion memory is bounded by the window (per metric)
// rather than the whole file.
const csvChunkRows = 4096

// ReadCSV ingests telemetry in the CSV format cmd/fleetsim emits —
// a "time,metric,value" header followed by one row per observation, with
// RFC 3339 timestamps — into a new DB with the given step. Rows may be
// grouped per metric in any order; within a metric, rows are sorted by
// time inside a sliding window of csvChunkRows rows before insertion.
// Rows out of order by more than the window are an error, not a silent
// drop.
//
// Rows stream through DB.AppendBatch in chunks rather than accumulating
// in memory first, so a multi-gigabyte export ingests in bounded memory
// with one stripe-lock acquisition per chunk instead of one per row.
//
// This is the file-based integration point: export your monitoring data
// in this shape and scan it offline.
func ReadCSV(r io.Reader, step time.Duration) (*DB, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("fbdetect: reading CSV header: %w", err)
	}
	if header[0] != "time" || header[1] != "metric" || header[2] != "value" {
		return nil, fmt.Errorf("fbdetect: unexpected CSV header %v, want time,metric,value", header)
	}
	db := NewDB(step)
	chunks := map[MetricID][]tsdb.Point{}
	flush := func(id MetricID) error {
		pts := chunks[id]
		if len(pts) == 0 {
			return nil
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].T.Before(pts[j].T) })
		n, err := db.AppendBatch(pts)
		if err != nil {
			return fmt.Errorf("fbdetect: ingesting %s: %w", id, err)
		}
		if n != len(pts) {
			// AppendBatch silently skips stale points (its idempotent-replay
			// contract); in a file ingest a skip means a duplicate timestamp
			// or a row reordered past the window, and must be surfaced.
			return fmt.Errorf("fbdetect: ingesting %s: %d row(s) duplicated or out of order by more than %d rows",
				id, len(pts)-n, csvChunkRows)
		}
		chunks[id] = pts[:0]
		return nil
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("fbdetect: CSV line %d: %w", line, err)
		}
		ts, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, fmt.Errorf("fbdetect: CSV line %d: bad timestamp: %w", line, err)
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("fbdetect: CSV line %d: bad value: %w", line, err)
		}
		id := MetricID(rec[1]) // copies out of the reused record
		chunks[id] = append(chunks[id], tsdb.Point{ID: id, T: ts, V: v})
		if len(chunks[id]) >= csvChunkRows {
			if err := flush(id); err != nil {
				return nil, err
			}
		}
	}
	// Deterministic final-flush order for reproducible gap-filling.
	ids := make([]MetricID, 0, len(chunks))
	for id := range chunks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := flush(id); err != nil {
			return nil, err
		}
	}
	return db, nil
}
