package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// fillBoth drives an identical append sequence (quantized fleet-shaped
// values, with gaps) into a chunked and a raw store and returns the two.
// The raw store's chunks are longer than the series, so nothing in it
// seals and its head is the uncompressed reference.
func fillBoth(t *testing.T, n int) (chunked, raw *DB, id MetricID) {
	t.Helper()
	chunked = NewWithOptions(time.Minute, Options{ChunkSize: 100})
	raw = NewWithOptions(time.Minute, Options{ChunkSize: 2 * n})
	id = ID("svc", "sub", "gcpu")
	rng := rand.New(rand.NewSource(17))
	k := 5000.0
	for i := 0; i < n; i++ {
		k += math.Round(rng.NormFloat64() * 50)
		v := k / 1e5
		if rng.Intn(20) == 0 {
			i += rng.Intn(5) // leave a gap; the store fills it
		}
		ts := t0.Add(time.Duration(i) * time.Minute)
		if err := chunked.Append(id, ts, v); err != nil {
			t.Fatal(err)
		}
		if err := raw.Append(id, ts, v); err != nil {
			t.Fatal(err)
		}
	}
	if st := raw.StorageStats(); st.SealedChunks != 0 {
		t.Fatalf("raw reference sealed %d chunks", st.SealedChunks)
	}
	return chunked, raw, id
}

// mustEqualSeries compares two series bit-for-bit.
func mustEqualSeries(t *testing.T, got, want interface {
	Len() int
}, gotVals, wantVals []float64, gotStart, wantStart time.Time) {
	t.Helper()
	if got.Len() != want.Len() || !gotStart.Equal(wantStart) {
		t.Fatalf("series shape: got (len %d, start %v), want (len %d, start %v)",
			got.Len(), gotStart, want.Len(), wantStart)
	}
	for i := range wantVals {
		if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(gotVals[i]), math.Float64bits(wantVals[i]))
		}
	}
}

func TestChunkedMatchesRaw(t *testing.T) {
	chunked, raw, id := fillBoth(t, 1000)
	cf, err := chunked.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := raw.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeries(t, cf, rf, cf.Values, rf.Values, cf.Start, rf.Start)

	// Windowed queries at awkward offsets (mid-chunk, chunk-aligned,
	// head-only, everything).
	spans := [][2]int{{0, 1000}, {37, 412}, {100, 200}, {950, 1000}, {0, 100}, {99, 101}, {500, 500}}
	var sc Scratch
	for _, sp := range spans {
		from, to := t0.Add(time.Duration(sp[0])*time.Minute), t0.Add(time.Duration(sp[1])*time.Minute)
		cq, err := query(chunked, id, from, to)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := query(raw, id, from, to)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSeries(t, cq, rq, cq.Values, rq.Values, cq.Start, rq.Start)

		cv, _, err := chunked.QueryViewStamped(id, from, to, &sc)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSeries(t, cv, rq, cv.Values, rq.Values, cv.Start, rq.Start)

		start, n, _, err := chunked.ViewBounds(id, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if n != cv.Len() || !start.Equal(cv.Start) {
			t.Fatalf("ViewBounds (%v, %d) disagrees with view (%v, %d)", start, n, cv.Start, cv.Len())
		}
	}
}

func TestChunkedPruneMatchesRaw(t *testing.T) {
	chunked, raw, id := fillBoth(t, 1000)
	// Mid-chunk horizon: point 137 of 100-point chunks.
	horizon := t0.Add(137 * time.Minute)
	chunked.Prune(horizon)
	raw.Prune(horizon)
	cf, err := chunked.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := raw.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeries(t, cf, rf, cf.Values, rf.Values, cf.Start, rf.Start)
	if !cf.Start.Equal(horizon) {
		t.Fatalf("pruned start = %v, want %v", cf.Start, horizon)
	}
}

func TestEpochSemantics(t *testing.T) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	db.Append(id, t0, 1)
	_, _, st1, err := db.ViewBounds(id, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Epoch == 0 {
		t.Fatal("epoch = 0 for live series")
	}
	// Appends keep the epoch: existing windows' content cannot change.
	for i := 1; i < 300; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	_, _, st2, err := db.ViewBounds(id, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch != st1.Epoch {
		t.Errorf("epoch changed across appends: %d -> %d", st1.Epoch, st2.Epoch)
	}
	// Prune rewrites history: fresh epoch.
	db.Prune(t0.Add(10 * time.Minute))
	_, _, st3, err := db.ViewBounds(id, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Epoch == st2.Epoch {
		t.Error("epoch unchanged across prune")
	}
	// Restore rewrites history: fresh epoch.
	s, err := db.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	db.Restore(id, s)
	_, _, st4, err := db.ViewBounds(id, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if st4.Epoch == st3.Epoch {
		t.Error("epoch unchanged across restore")
	}
	// Distinct series get distinct epochs.
	id2 := ID("svc", "other", "gcpu")
	db.Append(id2, t0, 1)
	_, _, st5, err := db.ViewBounds(id2, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if st5.Epoch == st4.Epoch {
		t.Error("two series share an epoch")
	}
}

func TestScratchReuseNoCorruption(t *testing.T) {
	db := NewWithOptions(time.Minute, Options{ChunkSize: 50})
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 400; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	var sc Scratch
	// A later view recycles the scratch; the values must be the new
	// window's, and re-querying the first window must reproduce it.
	v1, _, err := db.QueryViewStamped(id, t0, t0.Add(100*time.Minute), &sc)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]float64{}, v1.Values...)
	v2, _, err := db.QueryViewStamped(id, t0.Add(200*time.Minute), t0.Add(250*time.Minute), &sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v2.Values {
		if v2.Values[i] != float64(200+i) {
			t.Fatalf("second view[%d] = %v, want %v", i, v2.Values[i], float64(200+i))
		}
	}
	v3, _, err := db.QueryViewStamped(id, t0, t0.Add(100*time.Minute), &sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if v3.Values[i] != first[i] {
			t.Fatalf("re-queried view[%d] = %v, want %v", i, v3.Values[i], first[i])
		}
	}
}

func TestStorageStatsCompression(t *testing.T) {
	// A long quantized fleet-shaped series must compress to <= 2
	// bytes/point overall (sealed chunks dominate the raw head).
	db := New(time.Minute) // default chunk size
	rng := rand.New(rand.NewSource(23))
	ids := [4]MetricID{}
	for w := range ids {
		ids[w] = ID("svc", "sub"+string(rune('a'+w)), "gcpu")
	}
	const n = 20000
	for w, id := range ids {
		k := float64(1000 * (w + 1))
		for i := 0; i < n; i++ {
			k += math.Round(rng.NormFloat64() * 20)
			if k < 0 {
				k = 0
			}
			db.Append(id, t0.Add(time.Duration(i)*time.Minute), k/1e5)
		}
	}
	st := db.StorageStats()
	if st.Series != len(ids) || st.Points != int64(len(ids)*n) {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.SealedPoints+st.HeadPoints != st.Points {
		t.Fatalf("sealed %d + head %d != total %d", st.SealedPoints, st.HeadPoints, st.Points)
	}
	if bpp := st.BytesPerPoint(); bpp > 2 {
		t.Errorf("storage = %.3f bytes/point, want <= 2 (%+v)", bpp, st)
	}
	// The unsealed control stores 8 bytes/point: every point stays in a
	// raw head sized to its one chunk.
	const m = 999
	raw := NewWithOptions(time.Minute, Options{ChunkSize: m + 1})
	for i := 0; i < m; i++ {
		raw.Append(ids[0], t0.Add(time.Duration(i)*time.Minute), 1)
	}
	if st := raw.StorageStats(); st.SealedChunks != 0 || st.HeadPoints != m || st.HeadBytes != 8*(m+1) {
		t.Errorf("raw stats = %+v", st)
	}
}

func TestRestoreRoundTripsThroughChunks(t *testing.T) {
	db := NewWithOptions(time.Minute, Options{ChunkSize: 64})
	id := ID("svc", "sub", "gcpu")
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), rng.NormFloat64())
	}
	snap, err := db.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	db2 := NewWithOptions(time.Minute, Options{ChunkSize: 64})
	db2.Restore(id, snap)
	got, err := db2.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeries(t, got, snap, got.Values, snap.Values, got.Start, snap.Start)
	// Appending after a restore continues the grid seamlessly.
	if err := db2.Append(id, t0.Add(500*time.Minute), 42); err != nil {
		t.Fatal(err)
	}
	if v, err := query(db2, id, t0.Add(500*time.Minute), t0.Add(501*time.Minute)); err != nil || v.Values[0] != 42 {
		t.Fatalf("post-restore append: %v %v", v, err)
	}
}
