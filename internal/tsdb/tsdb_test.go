package tsdb

import (
	"testing"
	"time"

	"fbdetect/internal/timeseries"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// query reads id's window [from, to) as a one-off reader does: a View on
// fresh buffers, materialised whole.
func query(db *DB, id MetricID, from, to time.Time) (*timeseries.Series, error) {
	v, err := db.View(id, from, to, nil)
	if err == nil {
		err = v.Materialize(0, v.N)
	}
	if err != nil {
		return nil, err
	}
	return v.Series(), nil
}

func TestIDRoundTrip(t *testing.T) {
	id := ID("frontfaas", "feed_render", "gcpu")
	svc, ent, met := id.Parts()
	if svc != "frontfaas" || ent != "feed_render" || met != "gcpu" {
		t.Errorf("Parts = %q %q %q", svc, ent, met)
	}
	id2 := ID("tao", "", "throughput")
	svc, ent, met = id2.Parts()
	if svc != "tao" || ent != "" || met != "throughput" {
		t.Errorf("service-level Parts = %q %q %q", svc, ent, met)
	}
	svc, ent, met = MetricID("plain").Parts()
	if svc != "" || ent != "" || met != "plain" {
		t.Errorf("malformed Parts = %q %q %q", svc, ent, met)
	}
}

func TestAppendAndQuery(t *testing.T) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 10; i++ {
		if err := db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := query(db, id, t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Values[0] != 2 || s.Values[2] != 4 {
		t.Errorf("query = %v", s.Values)
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	if err := db.Append(id, t0.Add(5*time.Minute), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(id, t0, 2); err == nil {
		t.Error("out-of-order append should fail")
	}
}

func TestAppendGapFilling(t *testing.T) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	if err := db.Append(id, t0, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(id, t0.Add(3*time.Minute), 9); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Full(id)
	want := []float64{7, 7, 7, 9}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := range want {
		if s.Values[i] != want[i] {
			t.Errorf("s[%d] = %v, want %v", i, s.Values[i], want[i])
		}
	}
}

func TestQueryUnknown(t *testing.T) {
	db := New(time.Minute)
	if _, err := query(db, ID("x", "y", "z"), t0, t0.Add(time.Hour)); err == nil {
		t.Error("unknown metric should error")
	}
	if _, err := db.Full(ID("x", "y", "z")); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestQueryReturnsCopy(t *testing.T) {
	db := New(time.Minute)
	id := ID("s", "e", "m")
	db.Append(id, t0, 1)
	db.Append(id, t0.Add(time.Minute), 2)
	s, _ := db.Full(id)
	s.Values[0] = 99
	s2, _ := db.Full(id)
	if s2.Values[0] != 1 {
		t.Error("Full leaked internal storage")
	}
}

func TestMetricsFilter(t *testing.T) {
	db := New(time.Minute)
	db.Append(ID("a", "x", "m"), t0, 1)
	db.Append(ID("b", "y", "m"), t0, 1)
	db.Append(ID("a", "z", "m"), t0, 1)
	all := db.Metrics("")
	if len(all) != 3 {
		t.Errorf("all metrics = %v", all)
	}
	onlyA := db.Metrics("a")
	if len(onlyA) != 2 {
		t.Errorf("service-a metrics = %v", onlyA)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Error("metrics not sorted")
		}
	}
	if db.Len() != 3 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestPrune(t *testing.T) {
	db := New(time.Minute)
	id := ID("a", "b", "c")
	for i := 0; i < 10; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	db.Prune(t0.Add(4 * time.Minute))
	s, _ := db.Full(id)
	if s.Len() != 6 || s.Values[0] != 4 {
		t.Errorf("pruned series = %v", s.Values)
	}
	if !s.Start.Equal(t0.Add(4 * time.Minute)) {
		t.Errorf("pruned start = %v", s.Start)
	}
	// Appending after prune continues to work.
	if err := db.Append(id, t0.Add(10*time.Minute), 10); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	db := New(time.Minute)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			id := ID("svc", string(rune('a'+g)), "m")
			for i := 0; i < 100; i++ {
				db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if db.Len() != 8 {
		t.Errorf("Len = %d, want 8", db.Len())
	}
	for _, id := range db.Metrics("svc") {
		s, err := db.Full(id)
		if err != nil || s.Len() != 100 {
			t.Errorf("series %s: len=%d err=%v", id, s.Len(), err)
		}
	}
}

func TestIDWithSlashedEntity(t *testing.T) {
	id := ID("svc", "endpoint:/feed/home", "endpoint_cost")
	svc, ent, met := id.Parts()
	if svc != "svc" || ent != "endpoint:/feed/home" || met != "endpoint_cost" {
		t.Errorf("Parts = %q %q %q", svc, ent, met)
	}
}

func TestQueryViewMatchesQuery(t *testing.T) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 20; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	from, to := t0.Add(3*time.Minute), t0.Add(11*time.Minute)
	copied, err := query(db, id, from, to)
	if err != nil {
		t.Fatal(err)
	}
	view, st, err := db.QueryViewStamped(id, from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch == 0 {
		t.Error("view epoch = 0 for known metric")
	}
	if view.Len() != copied.Len() || !view.Start.Equal(copied.Start) {
		t.Fatalf("view len=%d start=%v, query len=%d start=%v",
			view.Len(), view.Start, copied.Len(), copied.Start)
	}
	for i := range copied.Values {
		if view.Values[i] != copied.Values[i] {
			t.Fatalf("view[%d] = %v, query = %v", i, view.Values[i], copied.Values[i])
		}
	}
}

func TestQueryViewStableUnderAppendAndPrune(t *testing.T) {
	db := New(time.Minute)
	id := ID("svc", "sub", "gcpu")
	for i := 0; i < 8; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	view, _, err := db.QueryViewStamped(id, t0, t0.Add(8*time.Minute), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Appends (including ones forcing the backing array to grow) and a
	// prune must not disturb the snapshot.
	for i := 8; i < 4096; i++ {
		db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	db.Prune(t0.Add(6 * time.Minute))
	for i := 0; i < 8; i++ {
		if view.Values[i] != float64(i) {
			t.Fatalf("view[%d] = %v after append+prune, want %v", i, view.Values[i], float64(i))
		}
	}
}

func TestConcurrentAppendAndView(t *testing.T) {
	// Appends grow series while views are read — the race detector proves
	// the zero-copy snapshot discipline holds.
	db := New(time.Minute)
	ids := make([]MetricID, 4)
	for g := range ids {
		ids[g] = ID("svc", string(rune('a'+g)), "m")
		db.Append(ids[g], t0, 0)
	}
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(id MetricID) {
			for i := 1; i < 500; i++ {
				db.Append(id, t0.Add(time.Duration(i)*time.Minute), float64(i))
			}
			done <- true
		}(ids[g])
		go func(id MetricID) {
			for i := 0; i < 200; i++ {
				view, _, err := db.QueryViewStamped(id, t0, t0.Add(500*time.Minute), nil)
				if err != nil {
					t.Error(err)
					break
				}
				var sum float64
				for _, v := range view.Values {
					sum += v
				}
				_ = sum
			}
			done <- true
		}(ids[g])
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
