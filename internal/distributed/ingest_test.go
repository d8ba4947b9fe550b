package distributed

import (
	"bytes"
	"compress/gzip"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// retryPolicy is the IngestClient retry budget these tests run under:
// three attempts, 50ms/100ms backoff, half-width jitter.
var retryPolicy = resilience.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond,
	MaxDelay: 2 * time.Second, Multiplier: 2, Jitter: 0.5}

// ingestPoints builds a deterministic batch across two metrics.
func ingestPoints(n int) []tsdb.Point {
	pts := make([]tsdb.Point, 0, 2*n)
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		pts = append(pts,
			tsdb.Point{ID: tsdb.ID("svc", "sub", "gcpu"), T: at, V: float64(i)},
			tsdb.Point{ID: tsdb.ID("svc", "sub2", "gcpu"), T: at, V: float64(2 * i)},
		)
	}
	return pts
}

func TestIngestRoundTripAndIdempotentResend(t *testing.T) {
	db := tsdb.New(time.Minute)
	reg := obs.NewRegistry()
	h := NewIngestHandler(db, IngestOptions{})
	h.Instrument(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	client := NewIngestClient(srv.URL, srv.Client(), retryPolicy, nil, 1)
	pts := ingestPoints(30)
	res, err := client.Send(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != len(pts) || res.Skipped != 0 {
		t.Fatalf("first send: got %+v, want %d appended", res, len(pts))
	}
	if got := db.Len(); got != 2 {
		t.Fatalf("db has %d series, want 2", got)
	}
	s, err := db.Full(tsdb.ID("svc", "sub2", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 30 || s.Values[7] != 14 {
		t.Fatalf("series content wrong: len=%d v[7]=%v", s.Len(), s.Values[7])
	}

	// A re-send — the client's move after losing an ack — must change
	// nothing and report every point skipped.
	res, err = client.Send(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 0 || res.Skipped != len(pts) {
		t.Fatalf("re-send: got %+v, want all skipped", res)
	}
	if got := reg.NewCounter(MetricIngestBatches, "", nil).Value(); got != 2 {
		t.Fatalf("batches counter = %v, want 2", got)
	}
	if got := reg.NewCounter(MetricIngestPoints, "", nil).Value(); got != float64(len(pts)) {
		t.Fatalf("points counter = %v, want %d", got, len(pts))
	}
	if got := reg.NewCounter(MetricIngestSkipped, "", nil).Value(); got != float64(len(pts)) {
		t.Fatalf("skipped counter = %v, want %d", got, len(pts))
	}
}

// TestIngestNonFiniteValues round-trips the values JSON numbers cannot
// carry: NaN (a gap in a real series), ±Inf. Losing them would make a
// recovered store diverge from its control.
func TestIngestNonFiniteValues(t *testing.T) {
	db := tsdb.New(time.Minute)
	h := NewIngestHandler(db, IngestOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	id := tsdb.ID("svc", "sub", "gcpu")
	pts := []tsdb.Point{
		{ID: id, T: t0, V: 1},
		{ID: id, T: t0.Add(time.Minute), V: math.NaN()},
		{ID: id, T: t0.Add(2 * time.Minute), V: math.Inf(1)},
		{ID: id, T: t0.Add(3 * time.Minute), V: math.Inf(-1)},
	}
	client := NewIngestClient(srv.URL, srv.Client(), retryPolicy, nil, 1)
	res, err := client.Send(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 4 {
		t.Fatalf("appended %d, want 4", res.Appended)
	}
	s, err := db.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.Values[1]) || !math.IsInf(s.Values[2], 1) || !math.IsInf(s.Values[3], -1) {
		t.Fatalf("non-finite values mangled: %v", s.Values)
	}
}

// TestIngestCanonicalizesStratumTags: an external client writing stratum
// tag keys in a non-canonical order must land on the same series the
// simulator emits ("@gen=..;region=.."), or the pop-shift diagnosis would
// see two half-populated strata instead of one. Untagged metrics and
// entities with an unparseable suffix pass through byte-for-byte.
func TestIngestCanonicalizesStratumTags(t *testing.T) {
	db := tsdb.New(time.Minute)
	h := NewIngestHandler(db, IngestOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := strings.Join([]string{
		`{"metric":"svc/sub@region=west;gen=g2/gcpu","time":"2024-01-02T15:04:00Z","value":1}`,
		`{"metric":"svc/@class=live;gen=g2/popweight","time":"2024-01-02T15:04:00Z","value":0.4}`,
		`{"metric":"svc/sub@not-a-tag/gcpu","time":"2024-01-02T15:04:00Z","value":2}`,
		`{"metric":"svc/sub/gcpu","time":"2024-01-02T15:04:00Z","value":3}`,
	}, "\n") + "\n"
	resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	for _, want := range []tsdb.MetricID{
		tsdb.MetricID("svc/sub@gen=g2;region=west/gcpu"),
		tsdb.MetricID("svc/@gen=g2;class=live/popweight"),
		tsdb.MetricID("svc/sub@not-a-tag/gcpu"),
		tsdb.MetricID("svc/sub/gcpu"),
	} {
		if _, err := db.Full(want); err != nil {
			t.Errorf("series %q not stored: %v", want, err)
		}
	}
	if got := db.Len(); got != 4 {
		t.Errorf("db has %d series, want 4 (tag orders collapsed)", got)
	}
}

// blockingStore parks AppendBatch until released, so a test can hold one
// request in flight.
type blockingStore struct {
	entered chan struct{}
	release chan struct{}
}

func (s *blockingStore) AppendBatch(pts []tsdb.Point) (int, error) {
	s.entered <- struct{}{}
	<-s.release
	return len(pts), nil
}

func TestIngestBackpressure429(t *testing.T) {
	store := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	reg := obs.NewRegistry()
	h := NewIngestHandler(store, IngestOptions{MaxInFlight: 1, RetryAfter: 3 * time.Second})
	h.Instrument(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := string(EncodeNDJSON(ingestPoints(1)))
	first := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL, "application/x-ndjson", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-store.entered // the slot is now occupied

	resp, err := http.Post(srv.URL, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if got := reg.NewCounter(MetricIngestRejected, "", obs.Labels{"reason": IngestReasonBusy}).Value(); got != 1 {
		t.Fatalf("busy rejections = %v, want 1", got)
	}
	close(store.release)
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
}

func TestIngestOversizedBodyIsPermanent(t *testing.T) {
	db := tsdb.New(time.Minute)
	h := NewIngestHandler(db, IngestOptions{MaxBodyBytes: 64})
	srv := httptest.NewServer(h)
	defer srv.Close()

	attempts := 0
	countingClient := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		attempts++
		return srv.Client().Transport.RoundTrip(req)
	})}
	client := NewIngestClient(srv.URL, countingClient, retryPolicy,
		resilience.NewFakeClock(t0).AutoAdvance(), 1)
	_, err := client.Send(context.Background(), ingestPoints(50))
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("want a 413 error, got %v", err)
	}
	if attempts != 1 {
		t.Fatalf("client retried a 413 %d times; oversized bodies are permanent", attempts)
	}
	if db.Len() != 0 {
		t.Fatal("oversized batch must not be partially applied")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func TestIngestBadLinesRejected(t *testing.T) {
	db := tsdb.New(time.Minute)
	h := NewIngestHandler(db, IngestOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, body := range []string{
		"{\"metric\":\"a//m\",\"time\":\"2024-08-01T00:00:00Z\",\"value\":1}\nnot json\n",
		"{\"time\":\"2024-08-01T00:00:00Z\",\"value\":1}\n", // missing metric
		"{\"metric\":\"a//m\",\"value\":1}\n",               // missing time
	} {
		resp, err := http.Post(srv.URL, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: got %d, want 400", body, resp.StatusCode)
		}
	}
	if db.Len() != 0 {
		t.Fatal("rejected bodies must not touch the store")
	}
}

// TestIngestGzipBody: a gzip-compressed NDJSON batch is transparently
// inflated; the size limit applies to the decoded bytes, so a gzip bomb
// draws the same 413 an oversized plain body would.
func TestIngestGzipBody(t *testing.T) {
	db := tsdb.New(time.Minute)
	reg := obs.NewRegistry()
	h := NewIngestHandler(db, IngestOptions{MaxBodyBytes: 4096})
	h.Instrument(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	gz := func(b []byte) *bytes.Buffer {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(b)
		zw.Close()
		return &buf
	}
	post := func(body *bytes.Buffer, encoding string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	pts := ingestPoints(10)
	if resp := post(gz(EncodeNDJSON(pts)), "gzip"); resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip batch got %d, want 200", resp.StatusCode)
	}
	s, err := db.Full(tsdb.ID("svc", "sub", "gcpu"))
	if err != nil || s.Len() != 10 {
		t.Fatalf("gzip batch did not land: %v, len=%d", err, s.Len())
	}

	// Bomb: a few hundred wire bytes inflating to ~130 KiB of decoded
	// NDJSON (repeated lines compress brutally well).
	bomb := gz(bytes.Repeat(EncodeNDJSON(ingestPoints(1)[:1]), 2000))
	if bomb.Len() >= 4096 {
		t.Fatalf("bomb is %d wire bytes; make it smaller than the cap", bomb.Len())
	}
	if resp := post(bomb, "gzip"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb got %d, want 413", resp.StatusCode)
	}
	if got := reg.NewCounter(MetricIngestRejected, "", obs.Labels{"reason": IngestReasonTooLarge}).Value(); got != 1 {
		t.Fatalf("too_large rejections = %v, want 1", got)
	}

	// Garbage under the gzip flag and an unsupported coding both 400.
	if resp := post(bytes.NewBuffer([]byte("not gzip")), "gzip"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad gzip got %d, want 400", resp.StatusCode)
	}
	if resp := post(gz(EncodeNDJSON(pts)), "br"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsupported encoding got %d, want 400", resp.StatusCode)
	}
}

// TestIngestClientHonorsRetryAfter proves the resilience integration: a
// server that answers 429 with an explicit hint twice, then accepts. The
// client must wait exactly the hinted durations (not the policy backoff)
// and deliver the batch on the third attempt.
func TestIngestClientHonorsRetryAfter(t *testing.T) {
	db := tsdb.New(time.Minute)
	inner := NewIngestHandler(db, IngestOptions{})
	failures := 0
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if failures < 2 {
			failures++
			rw.Header().Set("Retry-After", "7")
			http.Error(rw, "draining", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(rw, req)
	}))
	defer srv.Close()

	clock := resilience.NewFakeClock(t0).AutoAdvance()
	policy := resilience.Policy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond,
		MaxDelay: time.Minute, Multiplier: 2, Jitter: 0}
	client := NewIngestClient(srv.URL, srv.Client(), policy, clock, 1)
	pts := ingestPoints(3)
	res, err := client.Send(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != len(pts) {
		t.Fatalf("appended %d, want %d", res.Appended, len(pts))
	}
	if got, want := clock.Slept(), 14*time.Second; got != want {
		t.Fatalf("client slept %v, want the two 7s hints (%v)", got, want)
	}
}

// quotaStore rejects every batch with a StatusError, standing in for the
// control plane's quota-enforcing store.
type quotaStore struct{}

type quotaErr struct{}

func (quotaErr) Error() string   { return "tenant quota exceeded" }
func (quotaErr) HTTPStatus() int { return http.StatusForbidden }

func (quotaStore) AppendBatch(pts []tsdb.Point) (int, error) { return 0, quotaErr{} }

// TestIngestStatusError: a store's StatusError reaches the client of
// either endpoint with its own status and message, counted as a quota
// rejection rather than a store failure.
func TestIngestStatusError(t *testing.T) {
	for _, tc := range []struct {
		route, body string
		handler     interface {
			http.Handler
			Instrument(*obs.Registry)
		}
		rejected string
	}{
		{"/ingest", `{"metric":"web//cpu","time":"2024-08-01T00:00:00Z","value":1}` + "\n",
			NewIngestHandler(quotaStore{}, IngestOptions{}), MetricIngestRejected},
		{"/profiles?service=web", "main;render 1\n",
			NewProfilesHandler(quotaStore{}, ProfilesOptions{}), MetricProfilesRejected},
	} {
		reg := obs.NewRegistry()
		tc.handler.Instrument(reg)
		req := httptest.NewRequest(http.MethodPost, tc.route, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		tc.handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusForbidden {
			t.Fatalf("%s: status = %d, want 403 from the store's StatusError", tc.route, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "quota") {
			t.Fatalf("%s: body %q should carry the store's message", tc.route, rec.Body.String())
		}
		count := func(reason string) float64 {
			return reg.NewCounter(tc.rejected, "", obs.Labels{"reason": reason}).Value()
		}
		if q, f := count(IngestReasonQuota), count(IngestReasonStoreFailed); q != 1 || f != 0 {
			t.Fatalf("%s: quota rejections = %v, store failures = %v, want 1 and 0", tc.route, q, f)
		}
	}
}

// TestIngestRejectsOverlongMetricID: an ID longer than the durable store
// can snapshot is a 400 before anything is logged. Accepting it used to
// damage the WAL: its 16-bit length wrapped, and every later acked point
// in the segment replayed as a torn tail.
func TestIngestRejectsOverlongMetricID(t *testing.T) {
	dir := t.TempDir()
	store, err := wal.OpenStore(dir, time.Minute, wal.Options{Sync: wal.SyncAlways}, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := NewIngestHandler(store, IngestOptions{})
	h.Instrument(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	long := strings.Repeat("x", 70000)
	body := "{\"metric\":\"svc/" + long + "/gcpu\",\"time\":\"2024-08-01T00:00:00Z\",\"value\":1}\n"
	resp, err := http.Post(srv.URL, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("70000-byte metric ID: got %d, want 400", resp.StatusCode)
	}
	if got := reg.NewCounter(MetricIngestRejected, "", obs.Labels{"reason": IngestReasonBadJSON}).Value(); got != 1 {
		t.Errorf("bad_json rejections = %v, want 1", got)
	}
	pts := ingestPoints(5)
	client := NewIngestClient(srv.URL, srv.Client(), retryPolicy, nil, 1)
	if _, err := client.Send(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	db, _, err := wal.Recover(dir, time.Minute, tsdb.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); db.Len() != 2 || st.Points != int64(len(pts)) {
		t.Fatalf("recovered %d series, %d points; want 2 and %d", db.Len(), st.Points, len(pts))
	}
}
