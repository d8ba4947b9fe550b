package tracing

import (
	"sync"
	"testing"
	"time"
)

func mkTrace(id, endpoint string, costs map[string]time.Duration) *RequestTrace {
	t := &RequestTrace{TraceID: id, Endpoint: endpoint}
	thread := 0
	for sub, cpu := range costs {
		t.Spans = append(t.Spans, TraceSpan{Subroutine: sub, Thread: thread, CPU: cpu})
		thread++
	}
	return t
}

func TestTotalCPUAggregatesAcrossThreads(t *testing.T) {
	tr := mkTrace("t1", "/feed", map[string]time.Duration{
		"render": 10 * time.Millisecond,
		"fetch":  5 * time.Millisecond,
	})
	if got := tr.TotalCPU(); got != 15*time.Millisecond {
		t.Errorf("TotalCPU = %v", got)
	}
	bd := tr.SubroutineBreakdown()
	if bd["render"] != 10*time.Millisecond {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestBreakdownMergesRepeatedSubroutine(t *testing.T) {
	tr := &RequestTrace{TraceID: "t", Endpoint: "/x", Spans: []TraceSpan{
		{Subroutine: "enc", CPU: time.Millisecond},
		{Subroutine: "enc", CPU: 2 * time.Millisecond},
	}}
	if got := tr.SubroutineBreakdown()["enc"]; got != 3*time.Millisecond {
		t.Errorf("merged cost = %v", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []*RequestTrace{
		{TraceID: "a", Endpoint: "", Spans: []TraceSpan{{Subroutine: "s", CPU: 1}}},
		{TraceID: "b", Endpoint: "/x"},
		{TraceID: "c", Endpoint: "/x", Spans: []TraceSpan{{Subroutine: "s", CPU: -1}}},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %s should be invalid", tr.TraceID)
		}
	}
	good := mkTrace("d", "/x", map[string]time.Duration{"s": 1})
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestAggregatorSnapshot(t *testing.T) {
	a := NewAggregator()
	for i := 0; i < 4; i++ {
		if err := a.Record(mkTrace("t", "/feed", map[string]time.Duration{
			"render": 10 * time.Millisecond,
		})); err != nil {
			t.Fatal(err)
		}
	}
	a.Record(mkTrace("t", "/ads", map[string]time.Duration{"score": 20 * time.Millisecond}))

	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("endpoints = %d", len(snap))
	}
	// Sorted by endpoint.
	if snap[0].Endpoint != "/ads" || snap[1].Endpoint != "/feed" {
		t.Errorf("order: %v, %v", snap[0].Endpoint, snap[1].Endpoint)
	}
	feed := snap[1]
	if feed.Requests != 4 || feed.TotalCPU != 40*time.Millisecond || feed.MeanCPU != 10*time.Millisecond {
		t.Errorf("feed stats = %+v", feed)
	}
	if feed.Subroutines["render"] != 40*time.Millisecond {
		t.Errorf("feed subroutines = %v", feed.Subroutines)
	}
	// Snapshot resets.
	if len(a.Snapshot()) != 0 {
		t.Error("snapshot did not reset")
	}
}

func TestAggregatorRejectsInvalid(t *testing.T) {
	a := NewAggregator()
	if err := a.Record(&RequestTrace{TraceID: "x", Endpoint: "/x"}); err == nil {
		t.Error("invalid trace accepted")
	}
	if len(a.Snapshot()) != 0 {
		t.Error("invalid trace recorded")
	}
}

func TestAggregatorConcurrent(t *testing.T) {
	a := NewAggregator()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Record(mkTrace("t", "/feed", map[string]time.Duration{"r": time.Millisecond}))
			}
		}()
	}
	wg.Wait()
	snap := a.Snapshot()
	if len(snap) != 1 || snap[0].Requests != 800 {
		t.Errorf("concurrent totals wrong: %+v", snap)
	}
}
