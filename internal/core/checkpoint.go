package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"fbdetect/internal/tsdb"
)

// Continuous scanning re-runs the full per-metric detection stack —
// CUSUM change-point search, SAX went-away discretization, rolling
// mean/variance, Mann-Kendall — over windows that are usually identical
// to the previous cycle's: a scan at an unchanged scan time sees the
// exact same window for every metric that took no appends. The detection
// stages are pure functions of the window contents, so their outcome is
// a per-series detector checkpoint that can be reused verbatim whenever
// the same window recurs, making a warm scan O(changed series) instead
// of O(all points). The scan's tsdb.View makes the reuse sound without
// decoding a single chunk: pinning the window stamps it with the store's
// epoch before anything is materialised, and stored values are never
// rewritten under an epoch, so (metric, epoch, window start, window
// length) pins the exact input bytes the checkpoint was computed from —
// byte-identical to the cold path by construction, not by approximation.

// defaultCheckpointCacheSize bounds the checkpoint cache when
// Config.CheckpointCacheSize is unset. One entry per scanned metric;
// entries with no candidates (the overwhelming majority) are a few
// words each.
const defaultCheckpointCacheSize = 8192

// cpEntry is one metric's cached detection outcome plus the window
// identity that pins it.
type cpEntry struct {
	epoch uint64
	start int64
	n     int
	scan  metricScan // owned: candidates deep-cloned in and out
}

// checkpointCache is a concurrency-safe per-metric LRU of detection
// checkpoints. A nil *checkpointCache is a valid always-miss cache.
type checkpointCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *cpNode
	items map[tsdb.MetricID]*list.Element

	hits, misses atomic.Uint64
}

type cpNode struct {
	metric tsdb.MetricID
	e      cpEntry
}

func newCheckpointCache(max int) *checkpointCache {
	return &checkpointCache{
		max:   max,
		ll:    list.New(),
		items: make(map[tsdb.MetricID]*list.Element),
	}
}

// get returns the metric's checkpoint if it matches the window identity.
// The returned scan is a deep clone: downstream stages mutate candidates
// (DetectedAt, RootCauses, group assignment) and the dedup stages retain
// the pointers across scans, so the cached master must never escape.
func (c *checkpointCache) get(metric tsdb.MetricID, epoch uint64, start int64, n int) (metricScan, bool) {
	if c == nil {
		return metricScan{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[metric]
	if !ok {
		c.misses.Add(1)
		return metricScan{}, false
	}
	e := &el.Value.(*cpNode).e
	if e.epoch != epoch || e.start != start || e.n != n {
		c.misses.Add(1)
		return metricScan{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return e.scan.clone(), true
}

// put stores the metric's checkpoint (deep-cloning the scan), replacing
// any previous window's entry and evicting the least recently used
// metric when full.
func (c *checkpointCache) put(metric tsdb.MetricID, epoch uint64, start int64, n int, scan metricScan) {
	if c == nil {
		return
	}
	e := cpEntry{epoch: epoch, start: start, n: n, scan: scan.clone()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[metric]; ok {
		el.Value.(*cpNode).e = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[metric] = c.ll.PushFront(&cpNode{metric: metric, e: e})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cpNode).metric)
	}
}

// stats returns the cumulative hit/miss counts (zero for a nil cache).
func (c *checkpointCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// size returns the current entry count.
func (c *checkpointCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CheckpointStats reports the detector-checkpoint cache's hit/miss
// counts and current entry count.
func (p *Pipeline) CheckpointStats() (hits, misses uint64, entries int) {
	hits, misses = p.checkpoints.stats()
	return hits, misses, p.checkpoints.size()
}

// clone deep-copies the scan outcome. The counters copy by value; each
// candidate is cloned so neither the cache's master nor a scratch-backed
// original is ever shared with callers.
func (m metricScan) clone() metricScan {
	if len(m.candidates) == 0 {
		return m
	}
	out := m
	out.candidates = make([]*Regression, len(m.candidates))
	for i, r := range m.candidates {
		out.candidates[i] = r.cloneDeep()
	}
	return out
}

// cloneDeep copies the regression including its windows (detaching them
// from any shared or scratch-backed values) and root-cause slice.
func (r *Regression) cloneDeep() *Regression {
	c := *r
	c.Windows = r.Windows.Clone()
	if r.RootCauses != nil {
		c.RootCauses = append([]RootCauseCandidate(nil), r.RootCauses...)
	}
	return &c
}
