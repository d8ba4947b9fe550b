package tsdb

import (
	"math"
	"sync"
	"testing"
	"time"
)

// nanFill poisons a scratch's value buffer at full capacity, so that a
// view over it shows NaN wherever nothing was copied or decoded.
func nanFill(sc *Scratch) {
	buf := sc.buf[:cap(sc.buf)]
	for i := range buf {
		buf[i] = math.NaN()
	}
}

// A window spanning six sealed chunks (the first of them only in part)
// and most of the head, materialised in two steps split at every (lo, hi): after Materialize(lo, hi) exactly the asked-for range
// is guaranteed, after the rest everything is, and both equal Query. The
// buffer is poisoned before every view, so a point that was never decoded
// cannot pass for one that was.
func TestMaterializeEverySplitEqualsQuery(t *testing.T) {
	const cs = 20
	db := NewWithOptions(time.Minute, Options{ChunkSize: cs})
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 7*cs+13; i++ {
		if err := db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i*i%977)/1e3); err != nil {
			t.Fatal(err)
		}
	}
	// Chunk 0 is outside; the window starts 7 points into chunk 1, covers
	// chunks 2-6 whole, and ends 9 points into the 13-point head.
	from, to := t0.Add((cs+7)*time.Minute), t0.Add((7*cs+9)*time.Minute)
	want, err := db.Query(id, from, to)
	if err != nil {
		t.Fatal(err)
	}
	n := want.Len()
	if n != 6*cs+2 {
		t.Fatalf("window holds %d points", n)
	}
	same := func(got, want []float64, lo, hi int, what string) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: point %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	var sc Scratch
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			nanFill(&sc)
			v, err := db.View(id, from, to, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if v.N != n || !v.Start.Equal(want.Start) {
				t.Fatalf("view (%v, %d), want (%v, %d)", v.Start, v.N, want.Start, n)
			}
			got := v.Series().Values
			if err := v.Materialize(lo, hi); err != nil {
				t.Fatal(err)
			}
			same(got, want.Values, lo, hi, "asked-for range")
			same(got, want.Values, n-9, n, "head share")
			if err := v.Materialize(0, n); err != nil {
				t.Fatal(err)
			}
			same(got, want.Values, 0, n, "whole window")
		}
	}
}

// Each pinned chunk is decoded at most once whatever the order and
// overlap of the requests: a second Materialize of a decoded range must
// not write, which a poisoned-after-decode buffer would reveal.
func TestMaterializeDecodesEachChunkOnce(t *testing.T) {
	db := NewWithOptions(time.Minute, Options{ChunkSize: 10})
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 45; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	var sc Scratch
	v, err := db.View(id, t0.Add(5*time.Minute), t0.Add(45*time.Minute), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(12, 18); err != nil { // inside chunk 1 = offsets [5, 15), and chunk 2
		t.Fatal(err)
	}
	vals := v.Series().Values
	vals[6], vals[16] = -1, -1 // scribble over decoded points
	if err := v.Materialize(0, v.N); err != nil {
		t.Fatal(err)
	}
	if vals[6] != -1 || vals[16] != -1 {
		t.Fatalf("a decoded chunk was decoded again: %v %v", vals[6], vals[16])
	}
	if vals[0] != 5 || vals[39] != 44 {
		t.Fatalf("window edges = %v, %v", vals[0], vals[39])
	}
}

// A pinned view is a snapshot. While it is held, appends seal two more
// chunks (moving the head the view copied from) and a Prune replaces the
// series under a new epoch; materialising afterwards must still yield the
// bytes, and report the epoch, the view was opened on. Run under -race
// this is also the proof that decoding needs no lock: the writers and the
// Materialize overlap.
func TestPinnedViewSurvivesSealAndPrune(t *testing.T) {
	const cs = 16
	db := NewWithOptions(time.Minute, Options{ChunkSize: cs})
	id := ID("svc", "sub", "gcpu")
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	val := func(i int) float64 { return float64(i*7%1013) / 1e4 }
	const n0 = 5*cs + 11 // five sealed chunks and an 11-point head
	for i := 0; i < n0; i++ {
		if err := db.Append(id, at(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.Query(id, at(3), at(n0))
	if err != nil {
		t.Fatal(err)
	}
	_, _, before, err := db.ViewBounds(id, at(3), at(n0))
	if err != nil {
		t.Fatal(err)
	}

	var sc Scratch
	v, err := db.View(id, at(3), at(n0), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stamp != before || v.N != want.Len() {
		t.Fatalf("view (%+v, %d), want (%+v, %d)", v.Stamp, v.N, before, want.Len())
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // seals two more chunks: the head is rewritten twice
		defer wg.Done()
		for i := n0; i < n0+2*cs+5; i++ {
			if err := db.Append(id, at(i), -1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	half := make(chan struct{})
	go func() {
		defer wg.Done()
		<-half
		db.Prune(at(2 * cs)) // drops chunks the view has pinned
	}()
	if err := v.Materialize(0, v.N/2); err != nil {
		t.Fatal(err)
	}
	close(half)
	wg.Wait()
	if err := v.Materialize(0, v.N); err != nil {
		t.Fatal(err)
	}
	got := v.Series()
	mustEqualSeries(t, got, want, got.Values, want.Values, got.Start, want.Start)

	_, _, after, err := db.ViewBounds(id, at(3), at(n0))
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("Prune did not advance the epoch")
	}
	if v.Stamp != before {
		t.Fatalf("the view's stamp moved: %+v", v.Stamp)
	}
}
