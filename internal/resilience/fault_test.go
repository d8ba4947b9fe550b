package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// get issues one GET through the transport and returns (status, err),
// draining the body.
func get(t *testing.T, ft *FaultTransport, rawurl string) (int, error) {
	t.Helper()
	client := &http.Client{Transport: ft}
	resp, err := client.Get(rawurl)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func TestFaultFailFirstSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	u, _ := url.Parse(srv.URL)

	ft := NewFaultTransport(1, nil, nil).Rule(FaultRule{
		Host: u.Host, Count: 2, Action: FaultAction{Status: http.StatusInternalServerError},
	})
	for i := 0; i < 2; i++ {
		code, err := get(t, ft, srv.URL)
		if err != nil || code != http.StatusInternalServerError {
			t.Fatalf("request %d = (%d, %v), want injected 500", i, code, err)
		}
	}
	for i := 2; i < 4; i++ {
		code, err := get(t, ft, srv.URL)
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %d = (%d, %v), want forwarded 200", i, code, err)
		}
	}
	if n := ft.Requests(u.Host); n != 4 {
		t.Errorf("Requests = %d, want 4", n)
	}
}

func TestFaultSkipWindowAndOnApply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	u, _ := url.Parse(srv.URL)

	var applied []int
	ft := NewFaultTransport(1, nil, nil).Rule(FaultRule{
		Host: u.Host, Skip: 1, Count: 2,
		Action:  FaultAction{Drop: true},
		OnApply: func(n int) { applied = append(applied, n) },
	})
	// Request 1 passes (Skip), 2 and 3 drop, 4 passes (Count spent).
	wantDrop := []bool{false, true, true, false}
	for i, drop := range wantDrop {
		_, err := get(t, ft, srv.URL)
		var de *DroppedError
		if gotDrop := errors.As(err, &de); gotDrop != drop {
			t.Fatalf("request %d: dropped = %v (err %v), want %v", i+1, gotDrop, err, drop)
		}
	}
	if len(applied) != 2 || applied[0] != 1 || applied[1] != 2 {
		t.Errorf("OnApply calls = %v, want [1 2]", applied)
	}
}

func TestFaultHostSelectivity(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	ft := NewFaultTransport(1, nil, nil).Rule(FaultRule{
		Host: "other.example:1", Action: FaultAction{Drop: true},
	})
	code, err := get(t, ft, srv.URL)
	if err != nil || code != http.StatusOK {
		t.Fatalf("unmatched host faulted: (%d, %v)", code, err)
	}
}

func TestFaultSeededProbDeterminism(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	mk := func(seed int64) []bool {
		ft := NewFaultTransport(seed, nil, nil).Rule(FaultRule{
			Prob: 0.5, Action: FaultAction{Status: 503},
		})
		var hits []bool
		for i := 0; i < 16; i++ {
			code, err := get(t, ft, srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			hits = append(hits, code == 503)
		}
		return hits
	}
	a, b := mk(42), mk(42)
	faulted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedule not reproducible at request %d", i)
		}
		if a[i] {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Errorf("prob 0.5 faulted %d/%d requests; schedule degenerate", faulted, len(a))
	}
}

func TestFaultDelayUsesClock(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	u, _ := url.Parse(srv.URL)

	clock := NewFakeClock(t0).AutoAdvance()
	ft := NewFaultTransport(1, nil, clock).Rule(FaultRule{
		Host: u.Host, Count: 1, Action: FaultAction{Delay: 30 * time.Second},
	})
	code, err := get(t, ft, srv.URL)
	if err != nil || code != http.StatusOK {
		t.Fatalf("delayed request = (%d, %v)", code, err)
	}
	if got := clock.Slept(); got != 30*time.Second {
		t.Errorf("virtual delay = %v, want 30s", got)
	}
}

func TestFaultHangReleasedByContext(t *testing.T) {
	ft := NewFaultTransport(1, nil, nil).Rule(FaultRule{
		Action: FaultAction{Hang: true},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://worker.invalid/scan", nil)
	done := make(chan error, 1)
	go func() {
		_, err := ft.RoundTrip(req)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung request returned %v, want context.Canceled", err)
	}
}
