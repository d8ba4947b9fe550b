package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func BenchmarkAppend(b *testing.B) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
}

// BenchmarkQueryWindow measures the read path every one-off reader
// takes: a View materialised whole into fresh buffers, here
// 1000 points out of nine sealed chunks, the first and last in part.
func BenchmarkQueryWindow(b *testing.B) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 100000; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	from := t0.Add(50000 * time.Minute)
	to := from.Add(1000 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(db, id, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAppendParallel drives 8 goroutines appending to disjoint metric
// sets — the shard-contention benchmark behind the benchdiff speedup
// gate. The single-lock variant (Shards: 1) is the pre-sharding store;
// the sharded variant must beat it by the factor the gate enforces.
func benchAppendParallel(b *testing.B, opts Options) {
	const (
		workers      = 8
		perWorkerIDs = 64 // spread each worker over many series so shard routing stays uniform
	)
	db := NewWithOptions(time.Minute, opts)
	ids := make([][]MetricID, workers)
	for w := range ids {
		ids[w] = make([]MetricID, perWorkerIDs)
		for m := range ids[w] {
			ids[w][m] = ID("svc", fmt.Sprintf("w%d_m%d", w, m), "gcpu")
		}
	}
	per := b.N/workers + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := ids[w]
			for i := 0; i < per; i++ {
				db.Append(mine[i%perWorkerIDs], t0.Add(time.Duration(i/perWorkerIDs)*time.Minute), float64(i))
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkAppendParallel(b *testing.B) {
	benchAppendParallel(b, Options{Shards: 16})
}

func BenchmarkAppendParallelSingleLock(b *testing.B) {
	benchAppendParallel(b, Options{Shards: 1})
}

func BenchmarkAppendBatch(b *testing.B) {
	db := New(time.Minute)
	const batch = 512
	pts := make([]Point, batch)
	ids := [8]MetricID{}
	for w := range ids {
		ids[w] = ID("svc", "sub"+string(rune('a'+w)), "gcpu")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := i * (batch / len(ids))
		for j := range pts {
			pts[j] = Point{ids[j%len(ids)], t0.Add(time.Duration(base+j/len(ids)) * time.Minute), float64(j)}
		}
		db.AppendBatch(pts)
	}
}

// BenchmarkChunkAppend measures per-point append cost into the chunked
// store (including amortized chunk sealing) on quantized fleet-shaped
// values, and reports the steady-state storage density as "bytes/point" —
// the custom metric the benchdiff -bytes-per-point ceiling gates. The
// series is topped up outside the timer so the density reflects sealed
// chunks rather than a mostly-raw head at small b.N.
func BenchmarkChunkAppend(b *testing.B) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	vals := quantizedValues(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), vals[i%len(vals)])
	}
	b.StopTimer()
	for i := b.N; i < 20000; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), vals[i%len(vals)])
	}
	b.ReportMetric(db.StorageStats().BytesPerPoint(), "bytes/point")
}

// BenchmarkChunkIterate measures decoding a 540-point detection window
// (the pipeline's 9-hour scan span) out of sealed chunks into a reused
// scratch buffer.
func BenchmarkChunkIterate(b *testing.B) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	vals := quantizedValues(20000)
	for i, v := range vals {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), v)
	}
	const window = 540
	from := t0.Add(time.Duration(len(vals)-window) * time.Minute)
	to := t0.Add(time.Duration(len(vals)) * time.Minute)
	var sc Scratch
	b.SetBytes(window * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := db.QueryViewStamped(id, from, to, &sc)
		if err != nil {
			b.Fatal(err)
		}
		if v.Len() != window {
			b.Fatalf("window = %d points", v.Len())
		}
	}
}

// quantizedValues builds a deterministic random walk on the decimal grid
// k/1e5, the shape of sampled-profiler counters quantized to a decimal
// grid. The served path that does so is /profiles, which rounds gCPU to
// the finer 1e-9 grid (distributed.BenchmarkProfileSeriesAppend holds
// that shape's storage cost).
func quantizedValues(n int) []float64 {
	vals := make([]float64, n)
	k, state := 5000.0, uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		state = state*6364136223846793005 + 1442695040888963407
		k += float64(int64(state>>33)%41 - 20)
		if k < 0 {
			k = 0
		}
		vals[i] = k / 1e5
	}
	return vals
}

func BenchmarkMetricsListing(b *testing.B) {
	db := New(time.Minute)
	for i := 0; i < 1000; i++ {
		db.Append(ID("svc", string(rune('a'+i%26))+string(rune('a'+i/26%26))+string(rune('a'+i/676)), "m"), t0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Metrics("svc")
	}
}
