package distributed

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
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

// foldedOffGrid is folded text whose gCPU values are sevenths, which sit
// on no decimal grid.
const foldedOffGrid = "main;render 1\nmain;fetch 2\nmain;fetch;decode 4\n"

// checkGCPUGrid fails unless every stored gCPU point of service lies on
// the 1e-9 grid and within half a grid step of its exact value in exact
// (subroutine → gCPU). It returns how many points it checked.
func checkGCPUGrid(t *testing.T, db *tsdb.DB, service string, exact map[string]float64) int {
	t.Helper()
	n := 0
	for _, id := range db.Metrics(service) {
		_, sub, _ := id.Parts()
		want, ok := exact[sub]
		if !ok {
			t.Fatalf("%s: stored, but not in the profile", id)
		}
		s, err := db.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s.Values {
			if _, ok := timeseries.ScaledValue(v, 1e9); !ok {
				t.Fatalf("%s = %v: not on the 1e-9 grid", id, v)
			}
			if d := math.Abs(v - want); d > 5e-10 {
				t.Fatalf("%s = %v: %.3g from the exact gCPU %v", id, v, d, want)
			}
			n++
		}
	}
	return n
}

// TestProfilesGCPUOnGrid: both wire formats store gCPU rounded to the
// chunk codec's finest decimal scale, within 5e-10 of the exact sample
// fraction, so profile series seal and log as scaled integers.
func TestProfilesGCPUOnGrid(t *testing.T) {
	if s, _ := timeseries.ChunkScale(9); s != gcpuGrid {
		t.Fatalf("chunk scale 9 is %v, want the gCPU grid %v", s, gcpuGrid)
	}
	db := tsdb.New(time.Minute)
	srv := profilesServer(t, db, ProfilesOptions{}, nil)
	at := "&time=" + t0.Format(time.RFC3339)

	body := benchShapedProfile(1, 1)
	p, err := pprofparse.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	fold, _, err := p.Fold(pprofparse.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]float64{}
	for _, g := range fold {
		exact[g.Subroutine] = g.Value
	}
	if resp, _ := postProfile(t, srv.URL, "service=pprofsvc"+at, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof upload: status %d", resp.StatusCode)
	}
	if n := checkGCPUGrid(t, db, "pprofsvc", exact); n != 200 {
		t.Fatalf("pprof upload: checked %d points, want the top-K 200", n)
	}

	ss, _, err := pprofparse.ReadAny([]byte(foldedOffGrid), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postProfile(t, srv.URL, "service=foldsvc"+at, "", []byte(foldedOffGrid)); resp.StatusCode != http.StatusOK {
		t.Fatalf("folded upload: status %d", resp.StatusCode)
	}
	if n := checkGCPUGrid(t, db, "foldsvc", ss.GCPUAll()); n != 4 {
		t.Fatalf("folded upload: checked %d points, want 4", n)
	}
}

// TestProfilesWALRoundTrip: profile series written through the durable
// store, across a snapshot and the WAL after it, recover bit for bit and
// on the gCPU grid.
func TestProfilesWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *wal.Store {
		store, err := wal.OpenStore(dir, time.Minute, wal.Options{Sync: wal.SyncNever}, tsdb.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	store := open()
	h := NewProfilesHandler(store, ProfilesOptions{})
	upload := func(i int, body []byte) {
		at := t0.Add(time.Duration(i) * time.Minute).Format(time.RFC3339)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/profiles?service=svc&time="+at, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	// 130 minutes seal one 120-point chunk per series; the snapshot
	// holds the first 100 and the WAL the rest.
	const minutes = 130
	for i := 0; i < minutes; i++ {
		if i == 100 {
			if err := store.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		upload(i, benchShapedProfile(1, int64(i)))
		upload(i, []byte(foldedOffGrid))
	}
	before := map[tsdb.MetricID]*timeseries.Series{}
	for _, id := range store.DB.Metrics("svc") {
		s, err := store.DB.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s.Values {
			if _, ok := timeseries.ScaledValue(v, gcpuGrid); !ok {
				t.Fatalf("%s holds %v, off the 1e-9 grid", id, v)
			}
		}
		before[id] = s
	}
	if st := store.DB.StorageStats(); st.SealedChunks == 0 {
		t.Fatal("no chunk sealed: the round trip never reached the chunk codec")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store = open()
	defer store.Close()
	if got := store.DB.Metrics("svc"); len(got) != len(before) {
		t.Fatalf("recovered %d series, want %d", len(got), len(before))
	}
	for id, want := range before {
		got, err := store.DB.Full(id)
		if err != nil {
			t.Fatalf("%s not recovered: %v", id, err)
		}
		if got.Len() != want.Len() || !got.Start.Equal(want.Start) {
			t.Fatalf("%s: recovered %d points from %v, want %d from %v",
				id, got.Len(), got.Start, want.Len(), want.Start)
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s[%d]: recovered %v, want %v bit for bit", id, i, got.Values[i], want.Values[i])
			}
		}
	}
}

// TestProfilesSeriesIDsInterned: uploads decoded at once, for several
// services, name their points by the same IDs tsdb.ID builds, and the
// cache starts over once it holds maxInternedIDs.
func TestProfilesSeriesIDsInterned(t *testing.T) {
	h := NewProfilesHandler(nil, ProfilesOptions{})
	body := benchShapedProfile(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		service := "svc" + strconv.Itoa(g%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				b, rej := h.decode(body, "", service, t0)
				if rej != nil {
					t.Error(rej.msg)
					return
				}
				for _, p := range b.pts {
					if _, sub, _ := p.ID.Parts(); p.ID != tsdb.ID(service, sub, "gcpu") {
						t.Errorf("point ID %q, want %q", p.ID, tsdb.ID(service, sub, "gcpu"))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if h.ids.n != 400 {
		t.Fatalf("%d IDs interned, want 200 for each of 2 services", h.ids.n)
	}

	for i := h.ids.n; i < maxInternedIDs; i++ {
		h.ids.get("fill", strconv.Itoa(i))
	}
	if h.ids.n != maxInternedIDs {
		t.Fatalf("%d IDs interned, want the cap %d", h.ids.n, maxInternedIDs)
	}
	if id := h.ids.get("svc0", "new"); id != tsdb.ID("svc0", "new", "gcpu") || h.ids.n != 1 {
		t.Fatalf("past the cap: ID %q with %d interned, want a fresh cache", id, h.ids.n)
	}
}
