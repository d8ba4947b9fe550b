package distributed

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

func TestPoolRuntimeAddDrainRemove(t *testing.T) {
	p := NewWorkerPool([]string{"http://a", "http://b"}, nil, PoolConfig{}, nil)

	if err := p.Add("http://a"); err == nil {
		t.Fatal("adding a duplicate URL must fail")
	}
	if err := p.Add("http://c"); err != nil {
		t.Fatal(err)
	}
	if got := p.URLs(); !slices.Equal(got, []string{"http://a", "http://b", "http://c"}) {
		t.Fatalf("URLs after add: %v", got)
	}

	// Draining removes a worker from every candidate list without
	// changing the other members' ring positions.
	if err := p.SetDraining("http://b", true); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"svc1", "svc2", "svc3", "svc4", "svc5"} {
		for _, url := range p.Candidates(svc) {
			if url == "http://b" {
				t.Fatalf("draining worker still a candidate for %s", svc)
			}
		}
	}
	st := p.Snapshot()
	var drained *WorkerStatus
	for i := range st {
		if st[i].URL == "http://b" {
			drained = &st[i]
		}
	}
	if drained == nil || !drained.Draining {
		t.Fatalf("snapshot does not show b draining: %+v", st)
	}

	// Undrain restores it.
	if err := p.SetDraining("http://b", false); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, url := range p.Candidates("svc1") {
		if url == "http://b" {
			found = true
		}
	}
	if !found {
		t.Fatal("undrained worker never returned to candidates")
	}

	if err := p.Remove("http://nope"); err == nil {
		t.Fatal("removing an unknown worker must fail")
	}
	if err := p.Remove("http://b"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("http://c"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("http://a"); err == nil {
		t.Fatal("removing the last worker must be refused")
	}
	if got := p.URLs(); !slices.Equal(got, []string{"http://a"}) {
		t.Fatalf("URLs after removes: %v", got)
	}
}

func TestCoordinatorRuntimeRing(t *testing.T) {
	c, err := NewCoordinator([]string{"http://a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddWorker("http://b"); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainWorker("http://b", true); err != nil {
		t.Fatal(err)
	}
	ws := c.Workers()
	if len(ws) != 2 || !ws[1].Draining {
		t.Fatalf("workers after add+drain: %+v", ws)
	}
	// ensure() must not rebuild the pool (and lose drain state) on the
	// next scan-path access: the coordinator's worker list tracks the
	// pool's mutations.
	if got := c.Pool().Snapshot(); len(got) != 2 || !got[1].Draining {
		t.Fatalf("pool rebuilt, drain state lost: %+v", got)
	}
	if err := c.RemoveWorker("http://b"); err != nil {
		t.Fatal(err)
	}
	if got := c.Workers(); len(got) != 1 || got[0].URL != "http://a" {
		t.Fatalf("workers after remove: %+v", got)
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
