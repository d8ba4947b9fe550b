package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// These tests pin the tentpole soundness claims of the incremental scan
// path: detector checkpoints and compressed chunk storage must be
// byte-identical to the cold, raw-storage path even as series grow
// between scans, at any checkpoint-cache size. Run under -race they also
// prove the scratch and cache sharing discipline.

// seedIncrementalDB appends the first `points` steps of a deterministic
// 40-metric workload (some seasonal, one with a step regression) to db.
func seedIncrementalDB(db *tsdb.DB, points int) {
	rng := rand.New(rand.NewSource(99))
	for m := 0; m < 40; m++ {
		id := tsdb.ID("inc", "sub"+string(rune('a'+m%26))+string(rune('0'+m/26)), "gcpu")
		base := 0.001 * (1 + float64(m)*0.01)
		amp := 0.0
		if m%3 == 0 {
			amp = base * 0.2
		}
		for i := 0; i < points; i++ {
			v := base + amp*math.Sin(2*math.Pi*float64(i)/120) + rng.NormFloat64()*base*0.01
			if m == 7 && i >= 420 {
				v += base * 0.5 // clear step regression in the analysis window
			}
			if err := db.Append(id, t0.Add(time.Duration(i)*time.Minute), v); err != nil {
				panic(err)
			}
		}
	}
}

// incrementalConfig is a short-window config the 540-point workload
// supports, with the long-term path on so both detectors run.
func incrementalConfig() Config {
	return Config{
		Threshold: 0.0001,
		LongTerm:  true,
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
}

// scanSequence drives the scan schedule both pipelines must agree on:
// cold scan, warm repeat, then two more scans at later times after the
// store has grown (the caller appends between calls via grow).
func scanSequence(t *testing.T, p *Pipeline, db *tsdb.DB, label string) []*ScanResult {
	t.Helper()
	var out []*ScanResult
	scan := func(at time.Time) {
		r, err := p.Scan("inc", at)
		if err != nil {
			t.Fatalf("%s: scan at %v: %v", label, at, err)
		}
		out = append(out, r)
	}
	end1 := t0.Add(540 * time.Minute)
	scan(end1)
	scan(end1) // warm repeat: unchanged series
	seedIncrementalGrowth(db, 540, 600)
	scan(end1)                      // same window on grown series: content unchanged
	scan(t0.Add(600 * time.Minute)) // slid window: must recompute
	return out
}

// seedIncrementalGrowth extends every metric from step `from` to `to`
// with the same deterministic generator (rng state re-derived per metric
// so growth is reproducible across stores).
func seedIncrementalGrowth(db *tsdb.DB, from, to int) {
	rng := rand.New(rand.NewSource(173))
	for m := 0; m < 40; m++ {
		id := tsdb.ID("inc", "sub"+string(rune('a'+m%26))+string(rune('0'+m/26)), "gcpu")
		base := 0.001 * (1 + float64(m)*0.01)
		amp := 0.0
		if m%3 == 0 {
			amp = base * 0.2
		}
		for i := from; i < to; i++ {
			v := base + amp*math.Sin(2*math.Pi*float64(i)/120) + rng.NormFloat64()*base*0.01
			if m == 7 {
				v += base * 0.5
			}
			if err := db.Append(id, t0.Add(time.Duration(i)*time.Minute), v); err != nil {
				panic(err)
			}
		}
	}
}

func compareScanResults(t *testing.T, got, want []*ScanResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scans != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Funnel != want[i].Funnel {
			t.Errorf("%s: scan %d funnel %+v != %+v", label, i, got[i].Funnel, want[i].Funnel)
		}
		if err := diffRegressions(got[i].Reported, want[i].Reported); err != nil {
			t.Errorf("%s: scan %d: %v", label, i, err)
		}
	}
}

// incrementalPipeline builds a pipeline with the given checkpoint-cache
// size (0 = default, -1 = disabled) over a freshly seeded chunked store.
func incrementalPipeline(t *testing.T, checkpointCacheSize int) (*Pipeline, *tsdb.DB) {
	t.Helper()
	cfg := incrementalConfig()
	cfg.CheckpointCacheSize = checkpointCacheSize
	db := tsdb.New(time.Minute)
	seedIncrementalDB(db, 540)
	p, err := NewPipeline(cfg, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, db
}

// TestIncrementalVsFullByteIdentical: checkpoints on vs fully disabled,
// same chunked store contents, appends interleaved between scans.
func TestIncrementalVsFullByteIdentical(t *testing.T) {
	pCold, dbCold := incrementalPipeline(t, -1)
	pWarm, dbWarm := incrementalPipeline(t, 0)

	cold := scanSequence(t, pCold, dbCold, "cold")
	warm := scanSequence(t, pWarm, dbWarm, "warm")
	compareScanResults(t, warm, cold, "incremental vs full")

	hits, misses, _ := pWarm.CheckpointStats()
	if hits == 0 {
		t.Error("warm pipeline never hit a checkpoint")
	}
	// Scans 1 and 2 (warm repeat, same window after growth) must be
	// all-hits; scans 0 and 3 all-misses: 80 of each.
	if hits != 80 || misses != 80 {
		t.Errorf("checkpoint hits/misses = %d/%d, want 80/80", hits, misses)
	}
	if len(cold[0].Reported) == 0 {
		t.Error("no regression reported; equivalence is vacuous")
	}
}

// TestCheckpointEvictionByteIdentical: a checkpoint cache far smaller
// than the metric count (8 entries, 40 metrics) evicts on almost every
// put. A thrashing LRU must cost time, never correctness: results stay
// byte-identical to the checkpoint-free path, the cache stays within its
// bound, and the repeat scans miss instead of being served stale entries.
func TestCheckpointEvictionByteIdentical(t *testing.T) {
	const size = 8
	pCold, dbCold := incrementalPipeline(t, -1)
	pTiny, dbTiny := incrementalPipeline(t, size)

	cold := scanSequence(t, pCold, dbCold, "cold")
	tiny := scanSequence(t, pTiny, dbTiny, "tiny")
	compareScanResults(t, tiny, cold, "evicting vs full")

	hits, misses, entries := pTiny.CheckpointStats()
	if entries > size {
		t.Errorf("checkpoint cache holds %d entries, bound is %d", entries, size)
	}
	if hits+misses != 160 {
		t.Errorf("checkpoint lookups = %d, want 160 (4 scans x 40 metrics)", hits+misses)
	}
	// A scan looks each metric up once, so only the <= 8 entries alive
	// when a repeat scan starts can hit: the two repeat scans (1 and 2)
	// must record at least 2*(40-8) misses on top of the 80 that scans 0
	// and 3 always take.
	if hits > 2*size {
		t.Errorf("checkpoint hits/misses = %d/%d with %d entries: eviction is not happening", hits, misses, size)
	}
	if len(cold[0].Reported) == 0 {
		t.Error("no regression reported; equivalence is vacuous")
	}

	// Same-order scans through a thrashing LRU evict every survivor before
	// looking it up, so probe the survivors directly: each answers for the
	// window it was computed from (the last scan's) and for no other.
	last := t0.Add(600 * time.Minute)
	from := last.Add(-pTiny.cfg.Windows.Total())
	resident := 0
	for _, id := range dbTiny.Metrics("inc") {
		start, n, st, err := dbTiny.ViewBounds(id, from, last)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pTiny.checkpoints.get(id, st.Epoch, start.UnixNano(), n); !ok {
			continue
		}
		resident++
		if _, ok := pTiny.checkpoints.get(id, st.Epoch, start.Add(-time.Minute).UnixNano(), n); ok {
			t.Errorf("%s: checkpoint served for a window it was not computed from", id)
		}
		if _, ok := pTiny.checkpoints.get(id, st.Epoch+1, start.UnixNano(), n); ok {
			t.Errorf("%s: checkpoint served across an epoch change", id)
		}
	}
	if resident != entries {
		t.Errorf("%d metrics answer for the last window, cache holds %d entries", resident, entries)
	}
}

// TestCompressedVsRawByteIdentical: identical pipelines over a chunked
// and a raw store fed the same appends. The raw store's chunks are longer
// than the 600 points the sequence grows each series to, so nothing in
// it seals.
func TestCompressedVsRawByteIdentical(t *testing.T) {
	cfg := incrementalConfig()

	dbChunked := tsdb.NewWithOptions(time.Minute, tsdb.Options{ChunkSize: 100})
	seedIncrementalDB(dbChunked, 540)
	pChunked, err := NewPipeline(cfg, dbChunked, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dbRaw := tsdb.NewWithOptions(time.Minute, tsdb.Options{ChunkSize: 1000})
	seedIncrementalDB(dbRaw, 540)
	pRaw, err := NewPipeline(cfg, dbRaw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	chunked := scanSequence(t, pChunked, dbChunked, "chunked")
	raw := scanSequence(t, pRaw, dbRaw, "raw")
	if st := dbRaw.StorageStats(); st.SealedChunks != 0 {
		t.Fatalf("raw store sealed %d chunks", st.SealedChunks)
	}
	compareScanResults(t, chunked, raw, "compressed vs raw")
}
