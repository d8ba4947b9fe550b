package tsdb

import (
	"fmt"
	"sync/atomic"
	"time"

	"fbdetect/internal/timeseries"
)

// DefaultChunkSize is the number of points per sealed chunk when Options
// leaves ChunkSize zero. 120 points is two hours of minutely data — small
// enough that a partially-overlapping window decodes little excess, large
// enough to amortize the per-chunk header and CRC to a fraction of a byte
// per point.
const DefaultChunkSize = 120

// RawChunks disables chunk compression when passed as Options.ChunkSize:
// series stay as raw float64 arrays and views are zero-copy, matching
// the pre-compression store. Equivalence tests and memory-insensitive
// callers use it as the control.
const RawChunks = -1

// epochCounter issues process-unique series epochs; see entry.epoch.
var epochCounter atomic.Uint64

func nextEpoch() uint64 { return epochCounter.Add(1) }

// sealedChunk is one immutable compressed block of chunkSize points.
type sealedChunk struct {
	data  []byte
	count int
}

// cseries stores one series as sealed compressed chunks plus a mutable
// raw head. Appends go to the head; when the head reaches chunkSize
// points its oldest chunkSize values are encoded (timeseries.EncodeChunk)
// and sealed. Sealed chunks all hold exactly chunkSize points, so the
// chunks overlapping an index range are directly addressable.
//
// With chunkSize <= 0 nothing is ever sealed (raw mode) and head is the
// whole series, readable zero-copy.
type cseries struct {
	start       time.Time
	step        time.Duration
	chunkSize   int
	sealed      []sealedChunk
	sealedPts   int
	sealedBytes int
	head        []float64
	last        float64 // most recent value; valid when len() > 0
}

func newCSeries(start time.Time, step time.Duration, chunkSize int) *cseries {
	return &cseries{start: start, step: step, chunkSize: chunkSize}
}

func (c *cseries) raw() bool { return c.chunkSize <= 0 }

func (c *cseries) len() int { return c.sealedPts + len(c.head) }

func (c *cseries) end() time.Time { return c.timeAt(c.len()) }

func (c *cseries) timeAt(i int) time.Time {
	return c.start.Add(time.Duration(i) * c.step)
}

// indexOf mirrors timeseries.Series.IndexOf: the index of the sample
// covering t, clamped to [0, len].
func (c *cseries) indexOf(t time.Time) int {
	if c.step <= 0 {
		return 0
	}
	i := int(t.Sub(c.start) / c.step)
	if i < 0 {
		return 0
	}
	if n := c.len(); i > n {
		return n
	}
	return i
}

// append adds one value to the head, sealing full chunks.
func (c *cseries) append(v float64) {
	if c.head == nil && !c.raw() {
		// Size the scratch to exactly one chunk up front: Go's doubling
		// growth would otherwise settle at the next power of two above
		// chunkSize, and at 10x series density that slack is real memory.
		c.head = make([]float64, 0, c.chunkSize)
	}
	c.head = append(c.head, v)
	c.last = v
	c.seal()
}

// appendRepeat adds n copies of v (gap filling), sealing as it goes.
func (c *cseries) appendRepeat(v float64, n int) {
	if n <= 0 {
		return
	}
	if c.raw() {
		for i := 0; i < n; i++ {
			c.head = append(c.head, v)
		}
		c.last = v
		return
	}
	for n > 0 {
		space := c.chunkSize - len(c.head)
		take := n
		if take > space {
			take = space
		}
		for i := 0; i < take; i++ {
			c.head = append(c.head, v)
		}
		n -= take
		c.seal()
	}
	c.last = v
}

// seal encodes full chunkSize prefixes of the head into sealed chunks.
// The head is reused (copy-down) so a series in steady state owns exactly
// one chunkSize-capacity scratch array.
func (c *cseries) seal() {
	if c.raw() {
		return
	}
	for len(c.head) >= c.chunkSize {
		enc, err := timeseries.EncodeChunk(c.timeAt(c.sealedPts), c.step, c.head[:c.chunkSize])
		if err != nil {
			// chunkSize is validated at construction (0 < chunkSize <=
			// MaxChunkPoints) and the step is the DB's, so encoding a full
			// head prefix cannot fail.
			panic(fmt.Sprintf("tsdb: seal chunk: %v", err))
		}
		c.sealed = append(c.sealed, sealedChunk{data: enc, count: c.chunkSize})
		c.sealedPts += c.chunkSize
		c.sealedBytes += len(enc)
		c.head = append(c.head[:0], c.head[c.chunkSize:]...)
	}
	if cap(c.head) > c.chunkSize {
		// A bulk append (restore, prune rebuild, long gap fill) grew the
		// scratch past one chunk; shrink it back so steady state owns
		// exactly chunkSize capacity per series.
		c.head = append(make([]float64, 0, c.chunkSize), c.head...)
	}
}

// bulkAppend appends values in order (restore and prune-rebuild path).
func (c *cseries) bulkAppend(values []float64) {
	if len(values) == 0 {
		return
	}
	c.head = append(c.head, values...)
	c.last = values[len(values)-1]
	c.seal()
}

// valuesInto appends the index range [i, j) of the series to dst,
// decoding overlapping sealed chunks. Chunks fully inside the range
// decode straight into dst; partially-overlapping boundary chunks decode
// into *tmp first. Both buffers grow as needed and are reusable across
// calls.
func (c *cseries) valuesInto(dst []float64, i, j int, tmp *[]float64) ([]float64, error) {
	if i < 0 {
		i = 0
	}
	if n := c.len(); j > n {
		j = n
	}
	if i >= j {
		return dst, nil
	}
	if i < c.sealedPts {
		cs := c.chunkSize
		for k := i / cs; k < len(c.sealed) && k*cs < j; k++ {
			base := k * cs
			lo, hi := i-base, j-base
			if lo < 0 {
				lo = 0
			}
			if hi > cs {
				hi = cs
			}
			if lo == 0 && hi == cs {
				_, _, out, err := timeseries.DecodeChunk(c.sealed[k].data, dst)
				if err != nil {
					return dst, fmt.Errorf("tsdb: sealed chunk %d: %w", k, err)
				}
				dst = out
				continue
			}
			buf, err := func() ([]float64, error) {
				_, _, out, err := timeseries.DecodeChunk(c.sealed[k].data, (*tmp)[:0])
				return out, err
			}()
			if err != nil {
				return dst, fmt.Errorf("tsdb: sealed chunk %d: %w", k, err)
			}
			*tmp = buf
			dst = append(dst, buf[lo:hi]...)
		}
	}
	if j > c.sealedPts {
		lo := i - c.sealedPts
		if lo < 0 {
			lo = 0
		}
		dst = append(dst, c.head[lo:j-c.sealedPts]...)
	}
	return dst, nil
}

// Scratch is a caller-owned reusable decode buffer for QueryViewStamped.
// A zero Scratch is ready to use; each call recycles the buffers, so a
// view is valid only until the same Scratch's next use.
type Scratch struct {
	buf []float64
	tmp []float64
}

// ViewStamp pins the identity of a series snapshot.
type ViewStamp struct {
	// Epoch is a process-unique content-stability token: it survives
	// appends — stored values are never rewritten in place, so any window
	// [start, start+n) observed under an epoch has identical content
	// whenever the same (epoch, start, n) triple is observed again — and
	// changes whenever history can be rewritten (series creation, Restore,
	// Prune). Caches of window-derived results key on (metric, epoch,
	// window) and stay warm across appends.
	Epoch uint64
}

// QueryViewStamped returns the metric's series restricted to [from, to)
// along with its ViewStamp. In chunked mode the window decodes into sc's
// reusable buffer (allocating only on first use or growth); the returned
// series is valid until sc's next use; a nil sc decodes into a fresh
// allocation. In raw mode (Options.ChunkSize == RawChunks) sc is untouched
// and the view is zero-copy, sharing the store's backing array; it is a
// stable snapshot because concurrent Appends only write past its end (or
// into a freshly grown array) and Prune replaces the backing array rather
// than truncating it in place. Callers must treat the view's Values as
// read-only.
func (db *DB) QueryViewStamped(id MetricID, from, to time.Time, sc *Scratch) (*timeseries.Series, ViewStamp, error) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.series[id]
	if !ok {
		return nil, ViewStamp{}, fmt.Errorf("tsdb: unknown metric %q", id)
	}
	st := ViewStamp{Epoch: e.epoch}
	c := e.data
	i, j := c.indexOf(from), c.indexOf(to)
	if j < i {
		j = i
	}
	if c.raw() {
		return timeseries.New(c.timeAt(i), c.step, c.head[i:j]), st, nil
	}
	if sc == nil {
		sc = &Scratch{}
	}
	vals, err := c.valuesInto(sc.buf[:0], i, j, &sc.tmp)
	sc.buf = vals
	if err != nil {
		return nil, ViewStamp{}, err
	}
	return timeseries.New(c.timeAt(i), c.step, vals), st, nil
}

// ViewBounds resolves the window [from, to) to its grid placement — the
// start time and point count QueryViewStamped would return — plus the
// series' current ViewStamp, without decoding any chunk. Callers with
// stamp-keyed caches check for a hit first and only pay for decoding on a
// miss.
func (db *DB) ViewBounds(id MetricID, from, to time.Time) (start time.Time, n int, st ViewStamp, err error) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.series[id]
	if !ok {
		return time.Time{}, 0, ViewStamp{}, fmt.Errorf("tsdb: unknown metric %q", id)
	}
	c := e.data
	i, j := c.indexOf(from), c.indexOf(to)
	if j < i {
		j = i
	}
	return c.timeAt(i), j - i, ViewStamp{Epoch: e.epoch}, nil
}

// StorageStats aggregates the store's in-memory footprint.
type StorageStats struct {
	Series       int
	Points       int64 // total stored points (sealed + head)
	SealedChunks int
	SealedPoints int64
	SealedBytes  int64 // compressed payload bytes, including headers and CRCs
	HeadPoints   int64
	HeadBytes    int64 // raw head capacity in bytes (8 * cap)
}

// TotalBytes is the value-storage footprint: compressed sealed bytes plus
// raw head capacity. Per-series bookkeeping (map entries, struct headers)
// is excluded; it is amortized across chunks and independent of history
// length.
func (st StorageStats) TotalBytes() int64 { return st.SealedBytes + st.HeadBytes }

// BytesPerPoint is TotalBytes over stored points (0 for an empty store).
func (st StorageStats) BytesPerPoint() float64 {
	if st.Points == 0 {
		return 0
	}
	return float64(st.TotalBytes()) / float64(st.Points)
}

// StorageStats walks every shard and sums the storage footprint.
func (db *DB) StorageStats() StorageStats {
	var st StorageStats
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, e := range sh.series {
			c := e.data
			st.Series++
			st.Points += int64(c.len())
			st.SealedChunks += len(c.sealed)
			st.SealedPoints += int64(c.sealedPts)
			st.SealedBytes += int64(c.sealedBytes)
			st.HeadPoints += int64(len(c.head))
			st.HeadBytes += int64(cap(c.head)) * 8
		}
		sh.mu.RUnlock()
	}
	return st
}
