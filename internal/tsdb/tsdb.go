// Package tsdb is the in-memory time-series store FBDetect scans. It
// substitutes for Meta's production monitoring store: the pipeline only
// needs windowed range queries over named metrics, which this package
// provides with concurrent-safe ingestion.
//
// Metric identity follows the paper's "metric ID" convention: a metric ID
// concatenates the entity (service, subroutine, or endpoint) and the metric
// name, e.g. "frontfaas/feed_render/gcpu" (paper §5.5.1).
//
// The store is optimized for the pipeline's hot path: every series carries
// an epoch (a content-stability token that survives appends) so callers
// can cache derived results keyed by (metric, epoch, window), a
// per-service index makes Metrics(service) proportional to that
// service's metric count, and View pins a window under one hold of the
// shard lock and decodes it into caller-reused scratch buffers, outside
// the lock, as far as the caller asks.
//
// Values are stored compressed: each series is a run of sealed fixed-size
// chunks (Gorilla-style XOR or scaled-integer encoding, see
// timeseries.EncodeChunk) plus one mutable raw head chunk that appends
// write into. Sealed chunks decode lazily at query time, and every read
// of them (Query, Full, QueryViewStamped, Prune's rebuild) is a View
// materialised whole.
//
// Writes scale with cores: the store is lock-striped into shards keyed by
// a hash of the MetricID (default GOMAXPROCS shards, see Options), so
// concurrent Appends to different series rarely contend on one lock — the
// paper's fleet ingests hundreds of thousands of live series, and a single
// store-wide mutex would serialize every one of them. AppendBatch groups a
// batch by shard and takes each stripe lock once.
package tsdb

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fbdetect/internal/timeseries"
)

// MetricID identifies one time series.
type MetricID string

// ID builds a MetricID from service, entity (subroutine/endpoint, may be
// empty for service-level metrics), and metric name.
func ID(service, entity, metric string) MetricID {
	if entity == "" {
		return MetricID(service + "//" + metric)
	}
	return MetricID(service + "/" + entity + "/" + metric)
}

// Parts splits a MetricID into service, entity, and metric name: the
// service is everything before the first '/', the metric everything after
// the last '/', and the entity the middle — so entities may themselves
// contain slashes (endpoint names like "endpoint:/feed/home"). Malformed
// IDs return the whole ID as the metric with empty service and entity.
func (id MetricID) Parts() (service, entity, metric string) {
	s := string(id)
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return "", "", s
	}
	rest := s[i+1:]
	j := strings.LastIndexByte(rest, '/')
	if j < 0 {
		return s[:i], "", rest
	}
	return s[:i], rest[:j], rest[j+1:]
}

// service returns the ID's service component without splitting the rest.
func (id MetricID) service() string {
	s := string(id)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return ""
}

// hash is FNV-1a over the ID's bytes, inlined so shard routing never
// allocates.
func (id MetricID) hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// Point is one observation of one metric — the unit of batched ingestion
// (AppendBatch, the WAL record payload, and the /ingest wire format all
// carry Points).
type Point struct {
	ID MetricID
	T  time.Time
	V  float64
}

// MaxIDLen is the longest MetricID a durable store accepts: the most the
// WAL snapshot's 16-bit length field holds. The WAL refuses to log a
// longer one and /ingest and /profiles answer it with a 400; the
// in-memory DB itself does not check.
const MaxIDLen = 1<<16 - 1

// CheckIDLen returns an error naming the first point whose ID is longer
// than MaxIDLen, or nil.
func CheckIDLen(pts []Point) error {
	for i, p := range pts {
		if len(p.ID) > MaxIDLen {
			return fmt.Errorf("tsdb: point %d: metric ID of %d bytes exceeds the %d-byte limit", i, len(p.ID), MaxIDLen)
		}
	}
	return nil
}

// entry pairs a stored series with its epoch, the content-stability token
// ViewStamp documents: fresh on creation, Restore, and Prune, unchanged
// by appends.
type entry struct {
	data  *cseries
	epoch uint64
}

// shard is one lock stripe: a private map of series plus the per-service
// index restricted to the IDs that hash here.
type shard struct {
	mu     sync.RWMutex
	series map[MetricID]*entry
	// byService indexes metric IDs per service, kept sorted. Maintained at
	// Append time so Metrics(service) never walks or re-parses the whole
	// store — with ~800k live series per the paper, the per-scan listing
	// must be O(the service's metrics), not O(all metrics).
	byService map[string][]MetricID
}

// Options tunes a DB. The zero value takes defaults.
type Options struct {
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default GOMAXPROCS; 1 degrades to the old single-lock store, which
	// the shard-contention benchmark uses as its baseline).
	Shards int
	// ChunkSize is the number of points per sealed compressed chunk
	// (default DefaultChunkSize, also for a negative value; clamped to
	// timeseries.MaxChunkPoints).
	ChunkSize int
}

// DB is an in-memory time-series database. The zero value is not usable;
// construct with New or NewWithOptions.
type DB struct {
	step      time.Duration
	shards    []*shard
	mask      uint32
	chunkSize int // points per sealed chunk
}

// New returns a DB whose series all share the given step (one point per
// step), with the default shard count.
func New(step time.Duration) *DB {
	return NewWithOptions(step, Options{})
}

// NewWithOptions returns a DB with explicit tuning.
func NewWithOptions(step time.Duration, opts Options) *DB {
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 1024 {
		n = 1024
	}
	// Round up to a power of two so routing is a mask, not a modulo.
	n = 1 << bits.Len(uint(n-1))
	if n < 1 {
		n = 1
	}
	cs := opts.ChunkSize
	switch {
	case cs <= 0:
		cs = DefaultChunkSize
	case cs > timeseries.MaxChunkPoints:
		cs = timeseries.MaxChunkPoints
	}
	db := &DB{step: step, shards: make([]*shard, n), mask: uint32(n - 1), chunkSize: cs}
	for i := range db.shards {
		db.shards[i] = &shard{
			series:    map[MetricID]*entry{},
			byService: map[string][]MetricID{},
		}
	}
	return db
}

// Step returns the database's sample step.
func (db *DB) Step() time.Duration { return db.step }

// NumShards returns the number of lock stripes.
func (db *DB) NumShards() int { return len(db.shards) }

// shardFor routes an ID to its stripe.
func (db *DB) shardFor(id MetricID) *shard {
	return db.shards[id.hash()&db.mask]
}

// indexAdd inserts id into its service's sorted index. Caller holds sh.mu.
func (sh *shard) indexAdd(id MetricID) {
	svc := id.service()
	ids := sh.byService[svc]
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	ids = append(ids, "")
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	sh.byService[svc] = ids
}

// appendLocked adds one point to the shard, creating the series on first
// sight and gap-filling as Append documents. stale points (at or before
// the series end) are either rejected or skipped per lenient. Caller
// holds sh.mu. Reports whether the point was appended.
func (sh *shard) appendLocked(step time.Duration, chunkSize int, id MetricID, t time.Time, v float64, lenient bool) (bool, error) {
	e, ok := sh.series[id]
	if !ok {
		e = &entry{data: newCSeries(t.Truncate(step), step, chunkSize), epoch: nextEpoch()}
		sh.series[id] = e
		sh.indexAdd(id)
	}
	c := e.data
	// Compute the raw slot without indexOf's clamping so gaps are visible.
	slot := int(t.Sub(c.start) / step)
	switch {
	case slot < c.len():
		if lenient {
			return false, nil
		}
		return false, fmt.Errorf("tsdb: out-of-order append to %s at %s", id, t)
	case slot == c.len():
		c.append(v)
	default:
		last := v
		if c.len() > 0 {
			last = c.last
		}
		c.appendRepeat(last, slot-c.len())
		c.append(v)
	}
	return true, nil
}

// Append adds one point to the metric's series at time t. Points must be
// appended in order; a point earlier than the series end is rejected. Gaps
// are filled by repeating the last value so windows stay regularly spaced
// (production systems interpolate similarly for scan alignment). The fill
// (appendRepeat) writes the gap point by point, sealing chunks as it goes,
// under the stripe lock: a gap of g steps costs O(g) work however far in
// the future t lies (ROADMAP item 2(a)).
func (db *DB) Append(id MetricID, t time.Time, v float64) error {
	sh := db.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, err := sh.appendLocked(db.step, db.chunkSize, id, t, v, false)
	return err
}

// AppendBatch adds many points, grouping them by shard so each stripe
// lock is taken once per batch instead of once per point. Within a
// metric, points apply in their order in pts.
//
// Unlike Append, AppendBatch is idempotent: a point at or before its
// series' current end is skipped silently rather than rejected. That is
// the contract durable ingestion needs — WAL replay re-applies records
// that may already be captured in a snapshot, and an ingest client whose
// acknowledgment was lost in a crash re-sends batches the store already
// holds; both must converge on the same content as an uninterrupted run.
// The returned count is the number of points actually appended; the
// remainder were stale duplicates.
func (db *DB) AppendBatch(pts []Point) (int, error) {
	if len(pts) == 0 {
		return 0, nil
	}
	appended := 0
	if len(db.shards) == 1 {
		sh := db.shards[0]
		sh.mu.Lock()
		for _, p := range pts {
			ok, _ := sh.appendLocked(db.step, db.chunkSize, p.ID, p.T, p.V, true)
			if ok {
				appended++
			}
		}
		sh.mu.Unlock()
		return appended, nil
	}
	// Bucket point indices per shard, preserving batch order within each.
	// The bucket slices come from a pool: steady-state ingestion appends
	// batches continuously, and reallocating per call cost ~13KB/op.
	bs := bucketPool.Get().(*bucketScratch)
	if len(bs.buckets) < len(db.shards) {
		bs.buckets = make([][]int, len(db.shards))
	}
	buckets := bs.buckets[:len(db.shards)]
	for i, p := range pts {
		s := p.ID.hash() & db.mask
		buckets[s] = append(buckets[s], i)
	}
	for si, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		sh := db.shards[si]
		sh.mu.Lock()
		for _, i := range idx {
			p := pts[i]
			ok, _ := sh.appendLocked(db.step, db.chunkSize, p.ID, p.T, p.V, true)
			if ok {
				appended++
			}
		}
		sh.mu.Unlock()
	}
	for si := range buckets {
		buckets[si] = buckets[si][:0]
	}
	bucketPool.Put(bs)
	return appended, nil
}

// bucketScratch holds AppendBatch's per-shard index buckets between
// calls; the inner slices keep their capacity, so a steady stream of
// similar batches allocates nothing.
type bucketScratch struct {
	buckets [][]int
}

var bucketPool = sync.Pool{New: func() any { return &bucketScratch{} }}

// Restore installs a series wholesale under the given ID, replacing any
// existing series — the bulk-load path snapshot recovery uses instead of
// replaying one Append per point. The restored series gets a fresh epoch.
func (db *DB) Restore(id MetricID, s *timeseries.Series) {
	sh := db.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.series[id]; !ok {
		sh.indexAdd(id)
	}
	c := newCSeries(s.Start, s.Step, db.chunkSize)
	c.bulkAppend(s.Values)
	sh.series[id] = &entry{data: c, epoch: nextEpoch()}
}

// Full returns a copy of the metric's complete series.
func (db *DB) Full(id MetricID) (*timeseries.Series, error) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.series[id]
	if !ok {
		sh.mu.RUnlock()
		return nil, fmt.Errorf("tsdb: unknown metric %q", id)
	}
	v := e.data.view(new(Scratch), 0, e.data.len())
	sh.mu.RUnlock()
	if err := v.Materialize(0, v.N); err != nil {
		return nil, err
	}
	return v.Series(), nil
}

// Metrics returns all metric IDs, sorted, optionally filtered to one
// service ("" matches all). The per-service listing reads the maintained
// per-shard indexes — no store walk, no ID parsing — then merges the (at
// most NumShards) sorted runs.
func (db *DB) Metrics(service string) []MetricID {
	var out []MetricID
	if service != "" {
		for _, sh := range db.shards {
			sh.mu.RLock()
			out = append(out, sh.byService[service]...)
			sh.mu.RUnlock()
		}
	} else {
		for _, sh := range db.shards {
			sh.mu.RLock()
			for id := range sh.series {
				out = append(out, id)
			}
			sh.mu.RUnlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumMetrics returns how many series the service has without copying the
// index ("" counts the whole store).
func (db *DB) NumMetrics(service string) int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		if service == "" {
			n += len(sh.series)
		} else {
			n += len(sh.byService[service])
		}
		sh.mu.RUnlock()
	}
	return n
}

// Len returns the number of stored series.
func (db *DB) Len() int {
	return db.NumMetrics("")
}

// Prune discards points older than the retention horizon for every series,
// bounding memory for long simulations. Pruned series are rebuilt into
// fresh chunks and backing arrays (never truncated in place), so
// outstanding views keep what they pinned; their epochs advance so caches
// keyed on (metric, epoch, window) invalidate. Pruning is exact even
// mid-chunk: overlapping sealed chunks are decoded and the surviving
// points re-sealed.
func (db *DB) Prune(before time.Time) {
	var sc Scratch
	for _, sh := range db.shards {
		sh.mu.Lock()
		for _, e := range sh.series {
			c := e.data
			if !c.start.Before(before) {
				continue
			}
			v := c.view(&sc, c.indexOf(before), c.len())
			if v.Materialize(0, v.N) != nil {
				// A sealed chunk failing its CRC means in-memory corruption;
				// keep the series untouched rather than truncating it to the
				// decodable prefix.
				continue
			}
			nc := newCSeries(v.Start, c.step, c.chunkSize)
			nc.bulkAppend(v.vals)
			e.data = nc
			e.epoch = nextEpoch()
		}
		sh.mu.Unlock()
	}
}
