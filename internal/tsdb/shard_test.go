package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fbdetect/internal/timeseries"
)

func TestShardCountRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {2000, 1024},
	}
	for _, c := range cases {
		db := NewWithOptions(time.Minute, Options{Shards: c.in})
		if db.NumShards() != c.want {
			t.Errorf("Shards %d -> %d stripes, want %d", c.in, db.NumShards(), c.want)
		}
	}
	if n := New(time.Minute).NumShards(); n < 1 || n&(n-1) != 0 {
		t.Errorf("default shard count %d is not a positive power of two", n)
	}
}

// TestAppendBatchMatchesAppend: batched ingestion must produce exactly the
// store per-point Append produces — same series, same values, same gap
// filling — at any shard count.
func TestAppendBatchMatchesAppend(t *testing.T) {
	pts := make([]Point, 0, 300)
	for m := 0; m < 10; m++ {
		id := ID("svc", fmt.Sprintf("sub%d", m), "gcpu")
		for i := 0; i < 30; i++ {
			step := i
			if m%3 == 0 {
				step = i * 3 // gaps exercise the fill path
			}
			pts = append(pts, Point{id, t0.Add(time.Duration(step) * time.Minute), float64(m*100 + i)})
		}
	}
	for _, shards := range []int{1, 4, 16} {
		serial := NewWithOptions(time.Minute, Options{Shards: shards})
		for _, p := range pts {
			if err := serial.Append(p.ID, p.T, p.V); err != nil {
				t.Fatal(err)
			}
		}
		batched := NewWithOptions(time.Minute, Options{Shards: shards})
		n, err := batched.AppendBatch(pts)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(pts) {
			t.Fatalf("shards=%d: appended %d of %d", shards, n, len(pts))
		}
		assertSameContent(t, serial, batched)
	}
}

// TestAppendBatchIdempotent: re-sending an already-ingested batch (the
// crash-recovery re-send path, and WAL replay over a snapshot) must be a
// no-op.
func TestAppendBatchIdempotent(t *testing.T) {
	pts := []Point{
		{ID("svc", "a", "gcpu"), t0, 1},
		{ID("svc", "a", "gcpu"), t0.Add(time.Minute), 2},
		{ID("svc", "b", "gcpu"), t0, 3},
	}
	db := New(time.Minute)
	if n, _ := db.AppendBatch(pts); n != 3 {
		t.Fatalf("first apply appended %d", n)
	}
	if n, _ := db.AppendBatch(pts); n != 0 {
		t.Fatalf("re-apply appended %d, want 0", n)
	}
	// A batch mixing stale and fresh points applies only the fresh ones.
	mixed := append(pts, Point{ID("svc", "a", "gcpu"), t0.Add(2 * time.Minute), 4})
	if n, _ := db.AppendBatch(mixed); n != 1 {
		t.Fatalf("mixed apply appended %d, want 1", n)
	}
	s, err := db.Full(ID("svc", "a", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Values[2] != 4 {
		t.Errorf("series after mixed apply = %v", s.Values)
	}
}

func TestRestoreInstallsSeries(t *testing.T) {
	db := New(time.Minute)
	s := timeseries.New(t0, time.Minute, []float64{1, 2, 3})
	id := ID("svc", "sub", "gcpu")
	db.Restore(id, s)
	got, err := db.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Values[2] != 3 {
		t.Errorf("restored series = %v", got.Values)
	}
	epoch := func() uint64 {
		_, _, st, err := db.ViewBounds(id, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return st.Epoch
	}
	restored := epoch()
	if restored == 0 {
		t.Error("restored epoch = 0")
	}
	if ms := db.Metrics("svc"); len(ms) != 1 || ms[0] != id {
		t.Errorf("Metrics after restore = %v", ms)
	}
	// Appending continues from the restored end.
	if err := db.Append(id, t0.Add(3*time.Minute), 4); err != nil {
		t.Fatal(err)
	}
	if got := epoch(); got != restored {
		t.Errorf("append changed epoch %d -> %d", restored, got)
	}
}

// TestConcurrentAppendAcrossShards hammers appends from many goroutines
// over many metrics while readers list and query — the lock-striping
// correctness test (run under -race via the Makefile race target).
func TestConcurrentAppendAcrossShards(t *testing.T) {
	db := NewWithOptions(time.Minute, Options{Shards: 8})
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := ID("svc", fmt.Sprintf("sub%d_%d", w, i%16), "gcpu")
				if err := db.Append(id, t0.Add(time.Duration(i/16)*time.Minute), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			db.Metrics("svc")
			db.NumMetrics("svc")
		}
	}()
	wg.Wait()
	<-done
	if got, want := db.Len(), workers*16; got != want {
		t.Errorf("series count = %d, want %d", got, want)
	}
	if got := db.NumMetrics("svc"); got != db.Len() {
		t.Errorf("NumMetrics(svc) = %d, Len = %d", got, db.Len())
	}
}

// assertSameContent fails unless both stores hold identical series.
func assertSameContent(t *testing.T, a, b *DB) {
	t.Helper()
	am, bm := a.Metrics(""), b.Metrics("")
	if len(am) != len(bm) {
		t.Fatalf("metric counts differ: %d vs %d", len(am), len(bm))
	}
	for i, id := range am {
		if bm[i] != id {
			t.Fatalf("metric[%d] = %s vs %s", i, id, bm[i])
		}
		as, err := a.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := b.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		if !as.Start.Equal(bs.Start) || as.Len() != bs.Len() {
			t.Fatalf("%s: shape differs: %v vs %v", id, as, bs)
		}
		for j := range as.Values {
			if as.Values[j] != bs.Values[j] {
				t.Fatalf("%s[%d] = %v vs %v", id, j, as.Values[j], bs.Values[j])
			}
		}
	}
}
