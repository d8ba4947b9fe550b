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
	if c.head == nil {
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

// Scratch is a caller-owned set of reusable buffers behind one View at a
// time. A zero Scratch is ready to use; each View or QueryViewStamped call
// on it recycles the buffers, so a view is valid only until the same
// Scratch's next use. The value buffer is not cleared between views: the
// points of a view that have not been materialised are unspecified
// (typically another series' values), never zero.
type Scratch struct {
	buf []float64 // the pinned window, at its full length
	tmp []float64 // decode target for chunks that straddle a window edge

	// The pinned window's sealed chunks: pinned[k] holds the window
	// offsets [first+k*chunkSize, first+(k+1)*chunkSize), clipped to the
	// window. decoded[k] is set once that share is in buf.
	pinned    []sealedChunk
	decoded   []bool
	first     int
	firstIdx  int // pinned[0]'s index among the series' sealed chunks, for errors
	chunkSize int
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

// View is one window of one series, pinned at a single instant and
// decoded on demand. Opening it resolves the window's grid placement and
// stamp, copies the share held by the mutable head and pins the sealed
// chunks that overlap the rest; Materialize then decodes just the chunks a
// reader is about to touch, outside the store's locks. Whatever happens to
// the series afterwards (appends that seal more chunks, Prune, Restore,
// Drop), the view keeps yielding the bytes it was opened on, under the
// stamp it was opened with.
type View struct {
	Start time.Time // time of the window's first point
	N     int       // points in the window
	Stamp ViewStamp

	step time.Duration
	vals []float64 // length N; nil when opened for bounds only
	sc   *Scratch  // nil when opened for bounds only
}

// view pins the index range [i, j) of the series into sc. Caller holds
// the shard lock, which is all that keeps the head from moving under the
// copy; the sealed chunks are immutable (seal only appends to c.sealed,
// and Prune and Restore install a new cseries), so pinning them is taking
// a sub-slice.
func (c *cseries) view(sc *Scratch, i, j int) View {
	n := j - i
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	sc.buf = sc.buf[:n]
	sc.pinned, sc.decoded = nil, sc.decoded[:0]
	if i < c.sealedPts && n > 0 {
		cs := c.chunkSize
		k0, k1 := i/cs, min((j+cs-1)/cs, len(c.sealed))
		sc.pinned = c.sealed[k0:k1]
		sc.decoded = append(sc.decoded, make([]bool, k1-k0)...)
		sc.first, sc.firstIdx, sc.chunkSize = k0*cs-i, k0, cs
	}
	if j > c.sealedPts {
		lo := max(i, c.sealedPts)
		copy(sc.buf[lo-i:], c.head[lo-c.sealedPts:j-c.sealedPts])
	}
	return View{Start: c.timeAt(i), N: n, step: c.step, vals: sc.buf, sc: sc}
}

// Materialize decodes the window offsets [lo, hi) into place, so that
// Series().Values[lo:hi] holds the stored points. Work is per pinned
// chunk and each is decoded at most once however often and in whatever
// order ranges are requested: a chunk any part of which is asked for is
// decoded for its whole share of the window. Offsets outside [0, N) are
// clamped.
func (v View) Materialize(lo, hi int) error {
	sc := v.sc
	if sc == nil || len(sc.pinned) == 0 {
		return nil
	}
	lo, hi = max(lo, 0), min(hi, v.N)
	if lo >= hi {
		return nil
	}
	// This is the package's one chunk walk: every read of sealed data —
	// Query, Full, Prune's rebuild, the scan's views — is a view
	// materialised here.
	cs := sc.chunkSize
	for k := (lo - sc.first) / cs; k < len(sc.pinned) && sc.first+k*cs < hi; k++ {
		if sc.decoded[k] {
			continue
		}
		// A chunk wholly inside the window decodes straight into place; one
		// that straddles a window edge goes through tmp.
		at := sc.first + k*cs // the chunk's first point, as a window offset
		inPlace := at >= 0 && at+cs <= v.N
		dst := sc.tmp[:0]
		if inPlace {
			dst = sc.buf[at : at : at+cs]
		}
		_, _, out, err := timeseries.DecodeChunk(sc.pinned[k].data, dst)
		if err == nil && len(out) != cs {
			err = fmt.Errorf("%w: %d points in a chunk of %d", timeseries.ErrChunkCorrupt, len(out), cs)
		}
		if err != nil {
			return fmt.Errorf("tsdb: sealed chunk %d: %w", sc.firstIdx+k, err)
		}
		if !inPlace {
			sc.tmp = out
			from := max(at, 0)
			copy(sc.buf[from:min(at+cs, v.N)], out[from-at:])
		}
		sc.decoded[k] = true
	}
	return nil
}

// Series returns the window as a series over the view's buffer. Only the
// ranges Materialize has been asked for (and the head's share, copied when
// the view was opened) hold stored points; materialising more later fills
// the same backing array in place, so sub-slices taken earlier become
// whole with it. Callers must treat Values as read-only.
func (v View) Series() *timeseries.Series {
	return timeseries.New(v.Start, v.step, v.vals)
}

// pin resolves the window [from, to) of id's series under one hold of
// the shard read lock. With a Scratch it opens a view into it; with nil
// it only resolves the bounds and stamp.
func (db *DB) pin(id MetricID, from, to time.Time, sc *Scratch) (View, error) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.series[id]
	if !ok {
		return View{}, fmt.Errorf("tsdb: unknown metric %q", id)
	}
	c := e.data
	i, j := c.indexOf(from), c.indexOf(to)
	if j < i {
		j = i
	}
	v := View{Start: c.timeAt(i), N: j - i, step: c.step}
	if sc != nil {
		v = c.view(sc, i, j)
	}
	v.Stamp = ViewStamp{Epoch: e.epoch}
	return v, nil
}

// View opens the metric's window [from, to) as a pinned, lazily decoded
// view backed by sc (a nil sc gets fresh buffers). The window's points
// appear in the view's buffer as Materialize is called; the buffer
// allocates only on first use or growth and the view is valid until sc's
// next use.
func (db *DB) View(id MetricID, from, to time.Time, sc *Scratch) (View, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	return db.pin(id, from, to, sc)
}

// QueryViewStamped returns the metric's series restricted to [from, to)
// along with its ViewStamp: a View, materialised whole. The returned
// series is valid until sc's next use; a nil sc decodes into a fresh
// allocation. Callers must treat the view's Values as read-only.
func (db *DB) QueryViewStamped(id MetricID, from, to time.Time, sc *Scratch) (*timeseries.Series, ViewStamp, error) {
	v, err := db.View(id, from, to, sc)
	if err == nil {
		err = v.Materialize(0, v.N)
	}
	if err != nil {
		return nil, ViewStamp{}, err
	}
	return v.Series(), v.Stamp, nil
}

// ViewBounds resolves the window [from, to) to its grid placement — the
// start time and point count a View would have — plus the series' current
// ViewStamp, without pinning or decoding anything.
func (db *DB) ViewBounds(id MetricID, from, to time.Time) (start time.Time, n int, st ViewStamp, err error) {
	v, err := db.pin(id, from, to, nil)
	return v.Start, v.N, v.Stamp, err
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
