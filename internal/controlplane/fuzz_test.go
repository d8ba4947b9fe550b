package controlplane

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fbdetect/internal/resilience"
)

// fuzzServer is built once per process: opening WAL-backed stores per
// fuzz execution would turn the fuzzer into a filesystem benchmark.
var (
	fuzzOnce   sync.Once
	fuzzSrv    *Server
	fuzzTenant Tenant
	fuzzErr    error
)

const fuzzAdminKey = "fuzz-admin-3b1f0d2c"

func fuzzSetup() {
	dir, err := os.MkdirTemp("", "cp-fuzz-*")
	if err != nil {
		fuzzErr = err
		return
	}
	clk := resilience.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)).AutoAdvance()
	fuzzSrv, fuzzErr = NewServer(Options{
		DataDir:  dir,
		AdminKey: fuzzAdminKey,
		Clock:    clk,
		// Generous limits: the fuzzer probes parsing, and a rate-limited
		// 429 on every exec would hide the interesting paths.
		DefaultQuotas: Quotas{MaxSeries: 1 << 20, RatePerSec: 1 << 20, Burst: 1 << 20},
	})
	if fuzzErr != nil {
		return
	}
	fuzzTenant, fuzzErr = fuzzSrv.tenants.Register("fuzz", Quotas{}, fuzzSrv.opts.DefaultQuotas, clk.Now())
}

// fuzzRoutes is the authenticated surface the fuzzer drives. Backfill
// submissions are safe: runner-side caps bound count and throttle, so a
// fuzzer-crafted operation cannot wedge a job worker.
var fuzzRoutes = []struct{ method, path string }{
	{"POST", "/ingest"},
	{"POST", "/profiles"},
	{"POST", "/scan"},
	{"POST", "/operations"},
	{"GET", "/operations"},
	{"GET", "/operations/op-00000000"},
	{"POST", "/admin/tenants"},
	{"GET", "/admin/tenants"},
}

// FuzzAPIRequest throws arbitrary auth headers and request bodies at the
// control-plane mux: every response must be a valid HTTP status (no
// panics, no hangs), unauthenticated requests must never be served, and
// admin endpoints must never open up to a tenant key.
func FuzzAPIRequest(f *testing.F) {
	f.Add(uint8(0), uint8(0), "Bearer abc", `{"metric":"web//cpu","time":"2026-08-08T12:00:00Z","value":1}`)
	f.Add(uint8(3), uint8(1), "", `{"kind":"backfill","params":{"service":"web","metric":"cpu","count":8}}`)
	f.Add(uint8(3), uint8(2), "x", `{"kind":"sweep","params":{"service":"web"}}`)
	f.Add(uint8(2), uint8(1), "Bearer ", `{"service":"web","scan_time":"2026-08-08T12:00:00Z"}`)
	f.Add(uint8(6), uint8(3), "junk", `{"name":"t","quotas":{"max_series":-1}}`)
	f.Add(uint8(10), uint8(3), "Basic Zm9v", `{"url":"http://w1","drain":true}`)
	f.Add(uint8(0), uint8(2), "Bearer \x00\xff", "not json at all\n\n{{{")

	f.Fuzz(func(t *testing.T, routeSel, authSel uint8, authRaw, body string) {
		fuzzOnce.Do(fuzzSetup)
		if fuzzErr != nil {
			t.Skipf("fuzz server unavailable: %v", fuzzErr)
		}
		route := fuzzRoutes[int(routeSel)%len(fuzzRoutes)]
		req := httptest.NewRequest(route.method, route.path, strings.NewReader(body))
		admin := false
		switch authSel % 4 {
		case 0: // raw fuzzer-controlled header
			req.Header.Set("Authorization", authRaw)
		case 1: // valid tenant key
			req.Header.Set("Authorization", "Bearer "+fuzzTenant.Key)
		case 2: // fuzzer-controlled X-API-Key
			req.Header.Set("X-API-Key", authRaw)
		case 3: // admin key
			req.Header.Set("Authorization", "Bearer "+fuzzAdminKey)
			admin = true
		}
		rr := httptest.NewRecorder()
		fuzzSrv.Handler().ServeHTTP(rr, req)

		if rr.Code < 100 || rr.Code > 599 {
			t.Fatalf("%s %s: invalid status %d", route.method, route.path, rr.Code)
		}
		isAdminRoute := strings.HasPrefix(route.path, "/admin/")
		if isAdminRoute && !admin && rr.Code != http.StatusUnauthorized &&
			rr.Code != http.StatusMethodNotAllowed && rr.Code != http.StatusNotFound {
			// A fuzzed credential must never unlock the admin plane
			// (unless the fuzzer literally reproduces the admin key,
			// which a 16-byte random constant makes implausible).
			if authRaw != fuzzAdminKey && !strings.Contains(authRaw, fuzzAdminKey) {
				t.Fatalf("%s %s with non-admin auth => %d, want 401", route.method, route.path, rr.Code)
			}
		}
		if !isAdminRoute && authSel%4 != 1 && authSel%4 != 3 {
			// Fuzzed tenant credentials likewise must not authenticate.
			if rr.Code != http.StatusUnauthorized && rr.Code != http.StatusNotFound &&
				rr.Code != http.StatusMethodNotAllowed &&
				!strings.Contains(authRaw, fuzzTenant.Key) {
				t.Fatalf("%s %s with fuzzed auth %q => %d, want 401", route.method, route.path, authRaw, rr.Code)
			}
		}
	})
}
