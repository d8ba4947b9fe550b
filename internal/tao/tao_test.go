package tao

import (
	"sync"
	"testing"
	"time"

	"fbdetect/internal/stats"
	"fbdetect/internal/tsdb"
)

var t0 = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

func TestObjectPutGet(t *testing.T) {
	s := NewStore()
	if err := s.ObjectPut(&Object{ID: 1, Type: "user"}); err != nil {
		t.Fatal(err)
	}
	o, ok := s.ObjectGet(1, "user")
	if !ok || o.Type != "user" {
		t.Errorf("get = %+v, %v", o, ok)
	}
	if _, ok := s.ObjectGet(2, "user"); ok {
		t.Error("missing object found")
	}
	// Type mismatch.
	if _, ok := s.ObjectGet(1, "post"); ok {
		t.Error("type mismatch should miss")
	}
	if err := s.ObjectPut(&Object{ID: 3}); err == nil {
		t.Error("untyped object accepted")
	}
	if err := s.ObjectPut(nil); err == nil {
		t.Error("nil object accepted")
	}
}

func TestAssocOrderingNewestFirst(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.AssocAdd(Assoc{ID1: 1, ID2: ObjectID(10 + i), Type: "friend",
			Time: t0.Add(time.Duration(i) * time.Minute)})
	}
	got := s.AssocRange(1, "friend", 0, 3)
	if len(got) != 3 {
		t.Fatalf("range = %d", len(got))
	}
	// Newest first: ID2 = 14, 13, 12.
	if got[0].ID2 != 14 || got[1].ID2 != 13 || got[2].ID2 != 12 {
		t.Errorf("order = %v %v %v", got[0].ID2, got[1].ID2, got[2].ID2)
	}
	// Offset.
	got = s.AssocRange(1, "friend", 3, 10)
	if len(got) != 2 || got[0].ID2 != 11 {
		t.Errorf("offset range = %v", got)
	}
	if n := s.AssocCount(1, "friend"); n != 5 {
		t.Errorf("count = %d", n)
	}
	if err := s.AssocAdd(Assoc{ID1: 1}); err == nil {
		t.Error("untyped assoc accepted")
	}
}

func TestAssocAddOutOfOrderTimes(t *testing.T) {
	s := NewStore()
	s.AssocAdd(Assoc{ID1: 1, ID2: 2, Type: "like", Time: t0.Add(time.Hour)})
	s.AssocAdd(Assoc{ID1: 1, ID2: 3, Type: "like", Time: t0}) // older, added later
	got := s.AssocRange(1, "like", 0, 2)
	if got[0].ID2 != 2 || got[1].ID2 != 3 {
		t.Errorf("order after out-of-order insert: %v %v", got[0].ID2, got[1].ID2)
	}
}

func TestTypeCounts(t *testing.T) {
	s := NewStore()
	s.ObjectPut(&Object{ID: 1, Type: "user"})
	s.ObjectGet(1, "user")
	s.ObjectGet(1, "user")
	s.AssocAdd(Assoc{ID1: 1, ID2: 2, Type: "friend", Time: t0})
	counts := s.TypeCounts()
	if counts["user"][OpObjGet] != 2 || counts["user"][OpObjPut] != 1 {
		t.Errorf("user counts = %v", counts["user"])
	}
	if counts["friend"][OpAssocAdd] != 1 {
		t.Errorf("friend counts = %v", counts["friend"])
	}
	if len(counts) != 2 {
		t.Errorf("data types = %d, want 2 (user, friend)", len(counts))
	}
}

func TestOpKindString(t *testing.T) {
	if OpObjGet.String() != "obj_get" || OpAssocRange.String() != "assoc_range" {
		t.Error("OpKind names wrong")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ObjectID(g*1000 + i)
				s.ObjectPut(&Object{ID: id, Type: "user"})
				s.ObjectGet(id, "user")
				s.AssocAdd(Assoc{ID1: id, ID2: id + 1, Type: "friend", Time: t0})
				s.AssocRange(id, "friend", 0, 5)
			}
		}(g)
	}
	wg.Wait()
	counts := s.TypeCounts()
	if counts["user"][OpObjPut] != 1600 || counts["friend"][OpAssocAdd] != 1600 {
		t.Errorf("concurrent counts = %v", counts)
	}
}

func TestWorkloadValidation(t *testing.T) {
	store := NewStore()
	mix := []TypeMix{{DataType: "user", ReadsPerStep: 10}}
	bad := []WorkloadConfig{
		{},
		{Service: "tao", Step: 0, Mixes: mix},
		{Service: "tao", Step: time.Minute},
	}
	for i, cfg := range bad {
		if _, err := NewWorkload(cfg, store); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewWorkload(WorkloadConfig{Service: "t", Step: time.Minute, Mixes: mix}, nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestWorkloadEmitsPerTypeSeries(t *testing.T) {
	store := NewStore()
	w, err := NewWorkload(WorkloadConfig{
		Service: "tao",
		Step:    time.Minute,
		Mixes: []TypeMix{
			{DataType: "user", ReadsPerStep: 100, WritesPerStep: 20},
			{DataType: "post", ReadsPerStep: 50, WritesPerStep: 10},
		},
		RateNoise: 0.02,
		Seed:      1,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(time.Minute)
	if err := w.Run(db, t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	reads, err := db.Full(tsdb.ID("tao", "type:user", "reads_per_step"))
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(reads.Values); m < 90 || m > 110 {
		t.Errorf("user reads mean = %v, want ~100", m)
	}
	thr, err := db.Full(tsdb.ID("tao", "", "throughput"))
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(thr.Values); m < 160 || m > 200 {
		t.Errorf("throughput mean = %v, want ~180", m)
	}
	// The workload really hit the store.
	counts := store.TypeCounts()
	if counts["user"][OpObjGet] == 0 || counts["post"][OpAssocRange] == 0 {
		t.Errorf("store not exercised: %v", counts)
	}
}

func TestWorkloadMixEventIsIORegression(t *testing.T) {
	store := NewStore()
	w, err := NewWorkload(WorkloadConfig{
		Service:   "tao",
		Step:      time.Minute,
		Mixes:     []TypeMix{{DataType: "user", ReadsPerStep: 100, WritesPerStep: 10}},
		RateNoise: 0.02,
		Seed:      2,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	w.ScheduleMixEvent(MixEvent{At: t0.Add(30 * time.Minute), DataType: "user", ReadFactor: 1.5})
	db := tsdb.New(time.Minute)
	if err := w.Run(db, t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	reads, _ := db.Full(tsdb.ID("tao", "type:user", "reads_per_step"))
	before := stats.Mean(reads.Values[:30])
	after := stats.Mean(reads.Values[30:])
	if after/before < 1.4 {
		t.Errorf("I/O regression not visible: %v -> %v", before, after)
	}
	// Writes unchanged.
	writes, _ := db.Full(tsdb.ID("tao", "type:user", "writes_per_step"))
	wb := stats.Mean(writes.Values[:30])
	wa := stats.Mean(writes.Values[30:])
	if wa/wb > 1.2 {
		t.Errorf("writes unexpectedly moved: %v -> %v", wb, wa)
	}
}
