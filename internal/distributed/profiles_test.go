package distributed

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/tsdb"
)

// profileBody builds a gzipped pprof protobuf with a known shape:
// render-heavy, one cold helper.
func profileBody() []byte {
	b := pprofparse.NewBuilder("cpu", "nanoseconds")
	b.SetTimeNanos(t0.Add(5 * time.Minute).UnixNano())
	b.Add([]string{"main.main", "main.render"}, 80)
	b.Add([]string{"main.main", "main.fetch"}, 15)
	b.Add([]string{"main.main", "main.fetch", "main.decode"}, 5)
	return b.Profile().MarshalGzip()
}

func postProfile(t *testing.T, url, query, contentType string, body []byte) (*http.Response, ProfilesResult) {
	t.Helper()
	resp, err := http.Post(url+"/profiles?"+query, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ProfilesResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return resp, res
}

func profilesServer(t *testing.T, db *tsdb.DB, opts ProfilesOptions, reg *obs.Registry) *httptest.Server {
	t.Helper()
	h := NewProfilesHandler(db, opts)
	h.Instrument(reg)
	mux := http.NewServeMux()
	mux.Handle("/profiles", h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestProfilesPprofUpload: a pprof upload lands as per-subroutine gCPU
// points at the profile's own collection time, and an idempotent
// re-upload skips everything.
func TestProfilesPprofUpload(t *testing.T) {
	db := tsdb.New(time.Minute)
	reg := obs.NewRegistry()
	srv := profilesServer(t, db, ProfilesOptions{}, reg)

	resp, res := postProfile(t, srv.URL, "service=websvc", "application/octet-stream", profileBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if res.Format != pprofparse.FormatPprof {
		t.Fatalf("format %q, want pprof", res.Format)
	}
	// main.main, main.render, main.fetch, main.decode.
	if res.Subroutines != 4 || res.Appended != 4 || res.Skipped != 0 {
		t.Fatalf("result %+v, want 4 subroutines appended", res)
	}
	if !res.Time.Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("time %v, want the profile's TimeNanos %v", res.Time, t0.Add(5*time.Minute))
	}

	s, err := db.Full(tsdb.ID("websvc", "main.render", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Values[0] != 0.8 {
		t.Fatalf("render gCPU series = %v, want single 0.8", s.Values)
	}
	s, err = db.Full(tsdb.ID("websvc", "main.main", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Values[0] != 1 {
		t.Fatalf("root gCPU = %v, want 1", s.Values[0])
	}

	// Re-upload: the store already holds these buckets, so nothing lands.
	_, res = postProfile(t, srv.URL, "service=websvc", "application/octet-stream", profileBody())
	if res.Appended != 0 || res.Skipped != 4 {
		t.Fatalf("re-upload %+v, want all skipped", res)
	}

	if got := reg.NewCounter(MetricProfilesTotal, "", obs.Labels{"format": "pprof"}).Value(); got != 2 {
		t.Fatalf("accepted counter = %v, want 2", got)
	}
	if got := reg.NewCounter(MetricProfilesPoints, "", nil).Value(); got != 4 {
		t.Fatalf("points counter = %v, want 4", got)
	}
	if got := reg.NewCounter(MetricProfilesSkipped, "", nil).Value(); got != 4 {
		t.Fatalf("skipped counter = %v, want 4", got)
	}

	// A real runtime/pprof profile, with inlined and address-only frames:
	// every acked point is the SampleSet's GCPUAll value, bit for bit.
	real, err := os.ReadFile("../pprofparse/testdata/cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pprofparse.Parse(real)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := p.SampleSet(pprofparse.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := ss.GCPUAll()
	resp, res = postProfile(t, srv.URL, "service=realsvc", "", real)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("real profile: status %d", resp.StatusCode)
	}
	if res.Subroutines != len(want) || res.Appended != len(want) || res.Capped {
		t.Fatalf("real profile: result %+v, want all %d subroutines appended", res, len(want))
	}
	for sub, v := range want {
		s, err := db.Full(tsdb.ID("realsvc", sub, "gcpu"))
		if err != nil {
			t.Fatalf("real profile: %s not stored: %v", sub, err)
		}
		if s.Len() != 1 || s.Values[0] != v {
			t.Fatalf("real profile: gCPU(%s) = %v, want exactly %v", sub, s.Values, v)
		}
	}
}

// TestProfilesFoldedUpload: folded text with an explicit ?time= lands at
// that timestamp, sniffed without any Content-Type.
func TestProfilesFoldedUpload(t *testing.T) {
	db := tsdb.New(time.Minute)
	srv := profilesServer(t, db, ProfilesOptions{}, nil)

	at := t0.Add(10 * time.Minute)
	resp, res := postProfile(t, srv.URL,
		"service=websvc&time="+at.Format(time.RFC3339), "",
		[]byte("main;render 30\nmain;fetch 10\n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if res.Format != pprofparse.FormatFolded {
		t.Fatalf("format %q, want folded", res.Format)
	}
	if !res.Time.Equal(at) {
		t.Fatalf("time %v, want explicit %v", res.Time, at)
	}
	s, err := db.Full(tsdb.ID("websvc", "render", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Values[0] != 0.75 {
		t.Fatalf("render gCPU = %v, want 0.75", s.Values)
	}
}

// TestProfilesGzipContentEncoding: a folded body compressed in transit is
// transparently inflated.
func TestProfilesGzipContentEncoding(t *testing.T) {
	db := tsdb.New(time.Minute)
	srv := profilesServer(t, db, ProfilesOptions{}, nil)

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("main;render 3\n"))
	zw.Close()
	req, err := http.NewRequest(http.MethodPost,
		srv.URL+"/profiles?service=websvc&time="+t0.Format(time.RFC3339), &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := db.Full(tsdb.ID("websvc", "render", "gcpu")); err != nil {
		t.Fatalf("gzipped folded upload did not land: %v", err)
	}
}

// TestProfilesTopK: the cap keeps the hottest subroutines and flags the
// truncation.
func TestProfilesTopK(t *testing.T) {
	db := tsdb.New(time.Minute)
	srv := profilesServer(t, db, ProfilesOptions{TopK: 2}, nil)

	_, res := postProfile(t, srv.URL, "service=websvc&time="+t0.Format(time.RFC3339), "",
		[]byte("root;hot 90\nroot;warm 9\nroot;cold 1\n"))
	if res.Subroutines != 2 || !res.Capped {
		t.Fatalf("result %+v, want 2 capped subroutines", res)
	}
	// root (gCPU 1) and hot (0.9) survive; warm and cold are dropped.
	for sub, want := range map[string]bool{"root": true, "hot": true, "warm": false, "cold": false} {
		_, err := db.Full(tsdb.ID("websvc", sub, "gcpu"))
		if (err == nil) != want {
			t.Errorf("subroutine %q stored=%v, want %v", sub, err == nil, want)
		}
	}
}

// TestProfilesRejections walks every 4xx path and its rejection counter.
func TestProfilesRejections(t *testing.T) {
	db := tsdb.New(time.Minute)
	reg := obs.NewRegistry()
	srv := profilesServer(t, db, ProfilesOptions{MaxBodyBytes: 256}, reg)

	reason := func(r string) float64 {
		return reg.NewCounter(MetricProfilesRejected, "", obs.Labels{"reason": r}).Value()
	}

	// GET → 405.
	resp, err := http.Get(srv.URL + "/profiles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || reason(ProfilesReasonBadMethod) != 1 {
		t.Fatalf("GET: status %d, bad_method=%v", resp.StatusCode, reason(ProfilesReasonBadMethod))
	}

	// Missing service → 400.
	resp, _ = postProfile(t, srv.URL, "", "", []byte("main;render 1\n"))
	if resp.StatusCode != http.StatusBadRequest || reason(ProfilesReasonBadRequest) != 1 {
		t.Fatalf("missing service: status %d", resp.StatusCode)
	}

	// Bad time → 400.
	resp, _ = postProfile(t, srv.URL, "service=s&time=yesterday", "", []byte("main;render 1\n"))
	if resp.StatusCode != http.StatusBadRequest || reason(ProfilesReasonBadRequest) != 2 {
		t.Fatalf("bad time: status %d", resp.StatusCode)
	}

	// Unparseable profile (sniffs as pprof, isn't one) → 400 bad_profile.
	resp, _ = postProfile(t, srv.URL, "service=s", "application/octet-stream", []byte{0x01, 0x02, 0x03})
	if resp.StatusCode != http.StatusBadRequest || reason(ProfilesReasonBadProfile) != 1 {
		t.Fatalf("garbage profile: status %d, bad_profile=%v", resp.StatusCode, reason(ProfilesReasonBadProfile))
	}

	// A function name that makes a metric ID longer than tsdb.MaxIDLen
	// → 400, and nothing is appended.
	long := profilesServer(t, db, ProfilesOptions{}, obs.NewRegistry())
	resp, _ = postProfile(t, long.URL, "service=s", "", []byte("main;"+strings.Repeat("x", tsdb.MaxIDLen)+" 1\n"))
	if resp.StatusCode != http.StatusBadRequest || db.Len() != 0 {
		t.Fatalf("over-long metric ID: status %d, %d series stored", resp.StatusCode, db.Len())
	}

	// Oversized body → 413.
	big := []byte("main;" + strings.Repeat("x", 300) + " 1\n")
	resp, _ = postProfile(t, srv.URL, "service=s", "", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || reason(ProfilesReasonTooLarge) != 1 {
		t.Fatalf("oversized: status %d", resp.StatusCode)
	}

	// Gzip bomb: tiny on the wire, inflates past the cap → 413, not 200.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(bytes.Repeat([]byte("main;render 1\n"), 1000))
	zw.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/profiles?service=s", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || reason(ProfilesReasonTooLarge) != 2 {
		t.Fatalf("gzip bomb: status %d, too_large=%v", resp.StatusCode, reason(ProfilesReasonTooLarge))
	}

	if db.Len() != 0 {
		t.Fatal("rejected uploads must not touch the store")
	}
}

// TestProfilesBackpressure429 mirrors the /ingest test: with one slot
// occupied, the next upload gets 429 + Retry-After.
func TestProfilesBackpressure429(t *testing.T) {
	store := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	reg := obs.NewRegistry()
	h := NewProfilesHandler(store, ProfilesOptions{MaxInFlight: 1, RetryAfter: 2 * time.Second})
	h.Instrument(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := "main;render 1\n"
	first := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"?service=s&time="+t0.Format(time.RFC3339),
			"text/plain", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-store.entered

	resp, err := http.Post(srv.URL+"?service=s", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second upload got %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if got := reg.NewCounter(MetricProfilesRejected, "", obs.Labels{"reason": ProfilesReasonBusy}).Value(); got != 1 {
		t.Fatalf("busy rejections = %v, want 1", got)
	}
	close(store.release)
	if err := <-first; err != nil {
		t.Fatalf("first upload failed: %v", err)
	}
}

// TestProfilesFallbackClock: a folded upload with no ?time= stamps with
// the injected clock.
func TestProfilesFallbackClock(t *testing.T) {
	db := tsdb.New(time.Minute)
	now := t0.Add(42 * time.Minute)
	h := NewProfilesHandler(db, ProfilesOptions{Now: func() time.Time { return now }})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"?service=s", "text/plain", strings.NewReader("main;render 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ProfilesResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Time.Equal(now) {
		t.Fatalf("time %v, want injected clock %v", res.Time, now)
	}
}
