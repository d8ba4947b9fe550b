package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/distributed"
	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

const testAdminKey = "admin-test-key"

// newTestServer boots a control plane in a temp dir on a fake clock.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *resilience.FakeClock) {
	t.Helper()
	clk := resilience.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)).AutoAdvance()
	opts := Options{
		DataDir:  t.TempDir(),
		AdminKey: testAdminKey,
		Clock:    clk,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, clk
}

// register creates a tenant directly through the store.
func register(t *testing.T, s *Server, name string, q Quotas) Tenant {
	t.Helper()
	tn, err := s.tenants.Register(name, q, s.opts.DefaultQuotas, s.now())
	if err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
	return tn
}

// ingestBody renders an NDJSON ingest payload.
func ingestBody(service, entity, metric string, start time.Time, step time.Duration, vals ...float64) string {
	var b strings.Builder
	for i, v := range vals {
		fmt.Fprintf(&b, `{"metric":%q,"time":%q,"value":%g}`+"\n",
			tsdb.ID(service, entity, metric), start.Add(time.Duration(i)*step).Format(time.RFC3339), v)
	}
	return b.String()
}

// doJSON drives the server mux with one request.
func doJSON(s *Server, method, path, key, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func TestRegisterIngestScanRoundTrip(t *testing.T) {
	s, clk := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{})

	// 6h of minutely data with a 10% step 90 minutes ago.
	now := clk.Now()
	start := now.Add(-6 * time.Hour)
	var b strings.Builder
	for i := 0; i < 360; i++ {
		v := 100.0
		if i >= 270 {
			v = 110.0
		}
		fmt.Fprintf(&b, `{"metric":%q,"time":%q,"value":%g}`+"\n",
			tsdb.ID("web", "host0", "cpu"), start.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), v)
	}
	rr := doJSON(s, "POST", "/ingest", tn.Key, b.String())
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body)
	}

	// The series landed namespaced: visible under the tenant's prefix,
	// invisible under the bare name.
	if n := s.store.DB.NumMetrics(namespaceService(tn.ID, "web")); n != 1 {
		t.Errorf("namespaced series = %d, want 1", n)
	}
	if n := s.store.DB.NumMetrics("web"); n != 0 {
		t.Errorf("bare-name series = %d, want 0 (namespace leak)", n)
	}

	// Scan sees the tenant-visible names, not the namespaced ones.
	scanReq := fmt.Sprintf(`{"service":"web","scan_time":%q}`, now.Format(time.RFC3339))
	rr = doJSON(s, "POST", "/scan", tn.Key, scanReq)
	if rr.Code != http.StatusOK {
		t.Fatalf("scan = %d: %s", rr.Code, rr.Body)
	}
	if got := rr.Body.String(); strings.Contains(got, tn.ID+":") {
		t.Errorf("scan response leaks namespace: %s", got)
	}

	// Another tenant scanning the same service name sees nothing.
	tn2 := register(t, s, "team-b", Quotas{})
	rr = doJSON(s, "POST", "/scan", tn2.Key, scanReq)
	if rr.Code != http.StatusNotFound {
		t.Errorf("cross-tenant scan = %d, want 404", rr.Code)
	}
}

// TestScanCanceledIs503: a tenant /scan whose request context is gone
// answers what a worker's /scan answers, a retryable 503 counted as
// canceled, not a 500.
func TestScanCanceledIs503(t *testing.T) {
	s, clk := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{})
	now := clk.Now()
	vals := make([]float64, 360)
	for i := range vals {
		vals[i] = 100
	}
	if rr := doJSON(s, "POST", "/ingest", tn.Key,
		ingestBody("web", "host0", "cpu", now.Add(-6*time.Hour), time.Minute, vals...)); rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/scan",
		strings.NewReader(fmt.Sprintf(`{"service":"web","scan_time":%q}`, now.Format(time.RFC3339)))).WithContext(ctx)
	req.Header.Set("Authorization", "Bearer "+tn.Key)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled scan = %d %q, want 503", rr.Code, rr.Body)
	}
	got := s.reg.NewCounter(distributed.MetricWorkerScanErrors, "",
		obs.Labels{"reason": distributed.ErrReasonCanceled}).Value()
	if got != 1 {
		t.Errorf("canceled scan counter = %v, want 1", got)
	}
}

func TestUnauthenticatedRequestsDontTouchStore(t *testing.T) {
	s, clk := newTestServer(t, nil)
	register(t, s, "team-a", Quotas{})

	body := ingestBody("web", "host0", "cpu", clk.Now(), time.Minute, 1, 2, 3)
	for _, key := range []string{"", "wrong-key", testAdminKey} {
		rr := doJSON(s, "POST", "/ingest", key, body)
		if rr.Code != http.StatusUnauthorized {
			t.Errorf("ingest with key %q = %d, want 401", key, rr.Code)
		}
	}
	// Malformed Authorization scheme is a 401, not a fallthrough.
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(body))
	req.Header.Set("Authorization", "Basic dXNlcjpwdw==")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusUnauthorized {
		t.Errorf("basic-auth ingest = %d, want 401", rr.Code)
	}

	if n := s.store.DB.Len(); n != 0 {
		t.Errorf("store has %d series after rejected requests, want 0", n)
	}
	if got := s.reg.NewCounter(MetricUnauthorized, "", nil).Value(); got < 4 {
		t.Errorf("unauthorized counter = %v, want >= 4", got)
	}
}

func TestSeriesQuotaEdges(t *testing.T) {
	s, clk := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{MaxSeries: 3})
	now := clk.Now()

	// Fill to exactly the quota in one batch: allowed.
	var b strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, `{"metric":%q,"time":%q,"value":1}`+"\n",
			tsdb.ID("web", fmt.Sprintf("host%d", i), "cpu"), now.Format(time.RFC3339))
	}
	if rr := doJSON(s, "POST", "/ingest", tn.Key, b.String()); rr.Code != http.StatusOK {
		t.Fatalf("fill-to-quota ingest = %d: %s", rr.Code, rr.Body)
	}

	// At the cap: writing to existing series still works.
	rr := doJSON(s, "POST", "/ingest", tn.Key,
		ingestBody("web", "host0", "cpu", now.Add(time.Minute), time.Minute, 2))
	if rr.Code != http.StatusOK {
		t.Errorf("at-quota existing-series ingest = %d, want 200: %s", rr.Code, rr.Body)
	}

	// One series over: the whole batch (new + existing points) rejects
	// with 403 and nothing lands.
	before := s.store.DB.NumMetrics(namespaceService(tn.ID, "web"))
	mixed := ingestBody("web", "host0", "cpu", now.Add(2*time.Minute), time.Minute, 3) +
		ingestBody("web", "host9", "cpu", now.Add(2*time.Minute), time.Minute, 3)
	rr = doJSON(s, "POST", "/ingest", tn.Key, mixed)
	if rr.Code != http.StatusForbidden {
		t.Fatalf("over-quota ingest = %d, want 403: %s", rr.Code, rr.Body)
	}
	if after := s.store.DB.NumMetrics(namespaceService(tn.ID, "web")); after != before {
		t.Errorf("series after rejected batch = %d, want %d (batch must be atomic)", after, before)
	}

	// The rollback means retrying a conforming batch still succeeds.
	rr = doJSON(s, "POST", "/ingest", tn.Key,
		ingestBody("web", "host1", "cpu", now.Add(3*time.Minute), time.Minute, 4))
	if rr.Code != http.StatusOK {
		t.Errorf("post-reject conforming ingest = %d, want 200: %s", rr.Code, rr.Body)
	}
	if got := s.reg.NewCounter(MetricQuotaRejections, "", obs.Labels{"tenant": tn.ID}).Value(); got != 1 {
		t.Errorf("quota rejections = %v, want 1", got)
	}

	// /profiles answers the same quota with the same 403: a folded
	// profile resolving to two subroutines fills a two-series quota, and
	// one that adds a third series is refused whole.
	pt := register(t, s, "team-b", Quotas{MaxSeries: 2})
	profiles := "/profiles?service=web&time=" + now.Format(time.RFC3339)
	if rr := doJSON(s, "POST", profiles, pt.Key, "main;render 3\n"); rr.Code != http.StatusOK {
		t.Fatalf("fill-to-quota profile = %d: %s", rr.Code, rr.Body)
	}
	rr = doJSON(s, "POST", profiles, pt.Key, "main;render 3\nmain;encode 1\n")
	if rr.Code != http.StatusForbidden || !strings.Contains(rr.Body.String(), "quota") {
		t.Fatalf("over-quota profile = %d, want 403 naming the quota: %s", rr.Code, rr.Body)
	}
	if got := s.store.DB.NumMetrics(namespaceService(pt.ID, "web")); got != 2 {
		t.Errorf("series after rejected profile = %d, want 2 (upload must be atomic)", got)
	}
	if got := s.reg.NewCounter(MetricQuotaRejections, "", obs.Labels{"tenant": pt.ID}).Value(); got != 1 {
		t.Errorf("profile quota rejections = %v, want 1", got)
	}
}

func TestRateLimitBurstAndIsolation(t *testing.T) {
	s, clk := newTestServer(t, nil)
	fast := register(t, s, "fast", Quotas{RatePerSec: 1, Burst: 3})
	calm := register(t, s, "calm", Quotas{RatePerSec: 1, Burst: 3})
	body := ingestBody("web", "host0", "cpu", clk.Now(), time.Minute, 1)

	// Burst up to the bucket depth, then 429 with a Retry-After hint.
	for i := 0; i < 3; i++ {
		if rr := doJSON(s, "POST", "/ingest", fast.Key, body); rr.Code != http.StatusOK {
			t.Fatalf("burst request %d = %d: %s", i, rr.Code, rr.Body)
		}
	}
	rr := doJSON(s, "POST", "/ingest", fast.Key, body)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request = %d, want 429: %s", rr.Code, rr.Body)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After = %q, want a positive hint", ra)
	}

	// The other tenant's bucket is untouched: its requests still land.
	if rr := doJSON(s, "POST", "/ingest", calm.Key, body); rr.Code != http.StatusOK {
		t.Errorf("isolated tenant ingest = %d, want 200 while other tenant is limited: %s",
			rr.Code, rr.Body)
	}
	if got := s.reg.NewCounter(MetricRateLimited, "", obs.Labels{"tenant": calm.ID}).Value(); got != 0 {
		t.Errorf("calm tenant rate-limited count = %v, want 0", got)
	}
	if got := s.reg.NewCounter(MetricRateLimited, "", obs.Labels{"tenant": fast.ID}).Value(); got != 1 {
		t.Errorf("fast tenant rate-limited count = %v, want 1", got)
	}

	// Tokens refill on the clock: a second later one request fits again.
	clk.Advance(time.Second)
	if rr := doJSON(s, "POST", "/ingest", fast.Key, body); rr.Code != http.StatusOK {
		t.Errorf("post-refill request = %d, want 200: %s", rr.Code, rr.Body)
	}
}

func TestAsyncBackfillLifecycle(t *testing.T) {
	s, _ := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{})

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cli := &Client{Base: srv.URL, Key: tn.Key}

	op, loc, err := cli.SubmitOperation(context.Background(), OpKindBackfill, backfillParams{
		Service: "web", Metric: "cpu", Count: 120, StepAt: 90, Factor: 1.2,
	})
	if err != nil {
		t.Fatalf("SubmitOperation: %v", err)
	}
	if loc != "/operations/"+op.ID {
		t.Errorf("Location = %q, want /operations/%s", loc, op.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := cli.WaitOperation(ctx, loc)
	if err != nil {
		t.Fatalf("WaitOperation: %v", err)
	}
	if done.Status != OpSucceeded {
		t.Fatalf("status = %s (%s), want succeeded", done.Status, done.Error)
	}
	var result struct {
		Written int `json:"written"`
	}
	if err := json.Unmarshal(done.Result, &result); err != nil || result.Written != 120 {
		t.Errorf("result = %s (err %v), want written 120", done.Result, err)
	}
	if n := s.store.DB.NumMetrics(namespaceService(tn.ID, "web")); n != 1 {
		t.Errorf("backfilled series = %d, want 1", n)
	}

	// Another tenant cannot see the operation.
	other := register(t, s, "team-b", Quotas{})
	if rr := doJSON(s, "GET", loc, other.Key, ""); rr.Code != http.StatusNotFound {
		t.Errorf("cross-tenant operation fetch = %d, want 404", rr.Code)
	}
	// The owner's list has it.
	rr := doJSON(s, "GET", "/operations", tn.Key, "")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), op.ID) {
		t.Errorf("operation list = %d %s, want to contain %s", rr.Code, rr.Body, op.ID)
	}
}

func TestOperationValidation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{})

	rr := doJSON(s, "POST", "/operations", tn.Key, `{"kind":"no-such-kind"}`)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("unknown kind = %d, want 400", rr.Code)
	}
	rr = doJSON(s, "POST", "/operations", tn.Key, `{not json`)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", rr.Code)
	}
	// A sweep of a service the tenant never wrote fails terminally, not
	// silently.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cli := &Client{Base: srv.URL, Key: tn.Key}
	_, loc, err := cli.SubmitOperation(context.Background(), OpKindSweep,
		sweepParams{Service: "never-written"})
	if err != nil {
		t.Fatalf("SubmitOperation: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := cli.WaitOperation(ctx, loc)
	if done == nil || done.Status != OpFailed {
		t.Fatalf("sweep of an unknown service: op %+v err %v, want failed terminal state", done, err)
	}
	if !resilience.IsPermanent(err) {
		t.Errorf("failed op error should be Permanent, got %v", err)
	}
}

func TestOperationRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	clk := resilience.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)).AutoAdvance()
	opts := Options{DataDir: dir, AdminKey: testAdminKey, Clock: clk}

	s1, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	tn := register(t, s1, "team-a", Quotas{})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-operation: the journal's last record for
	// the op says "running" and no terminal record ever lands.
	params, _ := json.Marshal(backfillParams{Service: "web", Metric: "cpu", Count: 30})
	crashed := Operation{
		ID: "op-crashed01", Tenant: tn.ID, Kind: OpKindBackfill, Params: params,
		Status: OpRunning, CreatedAt: clk.Now(), UpdatedAt: clk.Now(),
	}
	j, _, err := wal.OpenJournal(filepath.Join(dir, "ops.journal"), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(crashed)
	if err := j.Append(payload); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Restart: the op is requeued and runs to success with no client
	// involvement.
	s2, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.reg.NewCounter(MetricRecoveredOps, "", nil).Value(); got != 1 {
		t.Errorf("recovered ops counter = %v, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		op := s2.ops.Get("op-crashed01")
		if op == nil {
			t.Fatal("recovered op vanished")
		}
		if op.Status.Terminal() {
			if op.Status != OpSucceeded {
				t.Fatalf("recovered op status = %s (%s), want succeeded", op.Status, op.Error)
			}
			if op.Attempts != 1 {
				t.Errorf("recovered op attempts = %d, want 1", op.Attempts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered op stuck in %s", op.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := s2.store.DB.NumMetrics(namespaceService(tn.ID, "web")); n != 1 {
		t.Errorf("recovered backfill wrote %d series, want 1", n)
	}
}

func TestOperationAbandonedAfterRepeatedCrashes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.journal")
	op := Operation{ID: "op-looping", Tenant: "t-x", Kind: OpKindBackfill,
		Status: OpRunning, Attempts: maxOpAttempts}
	j, _, err := wal.OpenJournal(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(op)
	if err := j.Append(payload); err != nil {
		t.Fatal(err)
	}
	j.Close()

	st, recovered, err := openOpStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(recovered) != 0 {
		t.Errorf("recovered %d ops, want 0 (attempt budget exhausted)", len(recovered))
	}
	got := st.Get("op-looping")
	if got == nil || got.Status != OpFailed || !strings.Contains(got.Error, "abandoned") {
		t.Errorf("exhausted op = %+v, want failed/abandoned", got)
	}
}

// TestRecoveredOperationOfUnknownKindFails: a journal written by a
// server that ran a kind this one has no runner for (a "rebalance" from
// before that kind went) reopens with the op failed, and the server
// keeps serving.
func TestRecoveredOperationOfUnknownKindFails(t *testing.T) {
	dir := t.TempDir()
	clk := resilience.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)).AutoAdvance()
	op := Operation{ID: "op-oldkind", Tenant: "t-x", Kind: "rebalance",
		Status: OpPending, CreatedAt: clk.Now(), UpdatedAt: clk.Now()}
	j, _, err := wal.OpenJournal(filepath.Join(dir, "ops.journal"), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(op)
	if err := j.Append(payload); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s, err := NewServer(Options{DataDir: dir, AdminKey: testAdminKey, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := s.ops.Get("op-oldkind")
		if got == nil {
			t.Fatal("recovered op vanished")
		}
		if got.Status.Terminal() {
			if got.Status != OpFailed || !strings.Contains(got.Error, "unknown operation kind") {
				t.Fatalf("recovered op = %s (%q), want failed with unknown operation kind", got.Status, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered op stuck in %s", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	tn := register(t, s, "team-a", Quotas{})
	if rr := doJSON(s, "POST", "/ingest", tn.Key,
		ingestBody("web", "host0", "cpu", clk.Now(), time.Minute, 1, 2, 3)); rr.Code != http.StatusOK {
		t.Errorf("ingest after recovery = %d: %s", rr.Code, rr.Body)
	}
	if rr := doJSON(s, "GET", "/healthz", "", ""); rr.Code != http.StatusOK {
		t.Errorf("healthz after recovery = %d", rr.Code)
	}
}

func TestTenantQuotaUsageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clk := resilience.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)).AutoAdvance()
	opts := Options{DataDir: dir, AdminKey: testAdminKey, Clock: clk}

	s1, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	tn := register(t, s1, "team-a", Quotas{MaxSeries: 2})
	var b strings.Builder
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&b, `{"metric":%q,"time":%q,"value":1}`+"\n",
			tsdb.ID("web", fmt.Sprintf("host%d", i), "cpu"), clk.Now().Format(time.RFC3339))
	}
	if rr := doJSON(s1, "POST", "/ingest", tn.Key, b.String()); rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The key still works and the recounted usage still enforces the cap.
	rr := doJSON(s2, "POST", "/ingest", tn.Key,
		ingestBody("web", "host9", "cpu", clk.Now(), time.Minute, 1))
	if rr.Code != http.StatusForbidden {
		t.Errorf("post-restart over-quota ingest = %d, want 403: %s", rr.Code, rr.Body)
	}
	rr = doJSON(s2, "POST", "/ingest", tn.Key,
		ingestBody("web", "host0", "cpu", clk.Now().Add(time.Minute), time.Minute, 2))
	if rr.Code != http.StatusOK {
		t.Errorf("post-restart existing-series ingest = %d, want 200: %s", rr.Code, rr.Body)
	}
}

func TestAdminAPI(t *testing.T) {
	s, _ := newTestServer(t, nil)

	// Tenant registration needs the admin key.
	body := `{"name":"team-a","quotas":{"max_series":5}}`
	if rr := doJSON(s, "POST", "/admin/tenants", "not-admin", body); rr.Code != http.StatusUnauthorized {
		t.Errorf("non-admin register = %d, want 401", rr.Code)
	}
	rr := doJSON(s, "POST", "/admin/tenants", testAdminKey, body)
	if rr.Code != http.StatusCreated {
		t.Fatalf("admin register = %d: %s", rr.Code, rr.Body)
	}
	var tn Tenant
	if err := json.Unmarshal(rr.Body.Bytes(), &tn); err != nil || tn.Key == "" {
		t.Fatalf("register response %s (err %v): want a key", rr.Body, err)
	}
	if tn.Quotas.MaxSeries != 5 || tn.Quotas.RatePerSec != 50 {
		t.Errorf("quotas = %+v, want max_series 5 with defaulted rate", tn.Quotas)
	}

	// The list never exposes keys.
	rr = doJSON(s, "GET", "/admin/tenants", testAdminKey, "")
	if rr.Code != http.StatusOK || strings.Contains(rr.Body.String(), tn.Key) {
		t.Errorf("tenant list = %d %s: must not leak keys", rr.Code, rr.Body)
	}
}

func TestSweepOperation(t *testing.T) {
	s, clk := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{})

	// Seed a series with a clear step so the sweep has something to
	// count at low thresholds.
	now := clk.Now()
	start := now.Add(-6 * time.Hour)
	var b strings.Builder
	for i := 0; i < 360; i++ {
		v := 100.0
		if i >= 270 {
			v = 120.0
		}
		fmt.Fprintf(&b, `{"metric":%q,"time":%q,"value":%g}`+"\n",
			tsdb.ID("web", "host0", "lat"), start.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), v)
	}
	if rr := doJSON(s, "POST", "/ingest", tn.Key, b.String()); rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cli := &Client{Base: srv.URL, Key: tn.Key}
	_, loc, err := cli.SubmitOperation(context.Background(), OpKindSweep, sweepParams{
		Service: "web", ScanTime: now, Thresholds: []float64{0.001, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := cli.WaitOperation(ctx, loc)
	if err != nil {
		t.Fatalf("WaitOperation: %v", err)
	}
	var result struct {
		Curve []sweepPoint `json:"curve"`
	}
	if err := json.Unmarshal(done.Result, &result); err != nil || len(result.Curve) != 2 {
		t.Fatalf("sweep result %s (err %v), want 2-rung curve", done.Result, err)
	}
	if result.Curve[0].Reported < result.Curve[1].Reported {
		t.Errorf("floor curve not monotone: %+v", result.Curve)
	}
}

func TestDebugSurface(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for path, want := range map[string]string{
		"/healthz": "ok",
		"/metrics": MetricTenants,
	} {
		rr := doJSON(s, "GET", path, "", "")
		if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), want) {
			t.Errorf("%s = %d %.120s, want %q", path, rr.Code, rr.Body, want)
		}
	}
}

// TestNamespacedIDOverLimitIs400: an ID that fits tsdb.MaxIDLen as sent
// but not once the tenant prefix is added is refused with a 400, like one
// too long as sent, and counts toward no quota.
func TestNamespacedIDOverLimitIs400(t *testing.T) {
	s, clk := newTestServer(t, nil)
	tn := register(t, s, "team-a", Quotas{MaxSeries: 1})
	now := clk.Now()
	entity := strings.Repeat("x", tsdb.MaxIDLen-len("web//cpu"))
	rr := doJSON(s, "POST", "/ingest", tn.Key, ingestBody("web", entity, "cpu", now, time.Minute, 1))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("namespaced over-long ID = %d, want 400: %s", rr.Code, rr.Body)
	}
	// The refused series took no quota: the one series allowed still fits.
	if rr := doJSON(s, "POST", "/ingest", tn.Key, ingestBody("web", "host0", "cpu", now, time.Minute, 1)); rr.Code != http.StatusOK {
		t.Fatalf("ingest after the refusal = %d, want 200: %s", rr.Code, rr.Body)
	}
}
