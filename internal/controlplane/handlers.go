package controlplane

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"fbdetect/internal/distributed"
	"fbdetect/internal/obs"
)

// ctxKey keys the authenticated tenant in the request context.
type ctxKey int

const tenantKey ctxKey = 0

// TenantFrom returns the authenticated tenant of an in-flight request.
func TenantFrom(ctx context.Context) (Tenant, bool) {
	st, ok := ctx.Value(tenantKey).(*tenantState)
	if !ok {
		return Tenant{}, false
	}
	return st.Tenant, true
}

// apiKey extracts the bearer credential: "Authorization: Bearer <key>"
// preferred, "X-API-Key: <key>" accepted.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
		return "" // a malformed Authorization header is not a key
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// authTenant wraps next with tenant authentication: the key must resolve
// to a registered tenant or the request dies with a 401 before touching
// any handler state (the TSDB included).
func (s *Server) authTenant(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.tenants.byAPIKey(apiKey(r))
		if st == nil {
			s.unauthorized.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="fbdetect"`)
			http.Error(w, "missing or invalid API key", http.StatusUnauthorized)
			return
		}
		s.reg.NewCounter(MetricTenantRequests,
			"Authenticated requests, by tenant and route.",
			obs.Labels{"tenant": st.ID, "route": routeLabel(r.URL.Path)}).Inc()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey, st)))
	})
}

// routeLabel collapses /operations/{id} to a bounded label set.
func routeLabel(path string) string {
	if strings.HasPrefix(path, "/operations/") {
		return "/operations/{id}"
	}
	return path
}

// rateLimit wraps next with the tenant's token bucket. Buckets are
// per-tenant, so one tenant burning its budget draws 429s without
// consuming anything of another tenant's.
func (s *Server) rateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st, _ := r.Context().Value(tenantKey).(*tenantState)
		if st != nil {
			if ok, retryAfter := st.bucket.take(s.now()); !ok {
				s.reg.NewCounter(MetricRateLimited,
					"Requests rejected by the per-tenant rate limit.",
					obs.Labels{"tenant": st.ID}).Inc()
				w.Header().Set("Retry-After", distributed.RetryAfterSeconds(retryAfter))
				http.Error(w, "tenant rate limit exceeded", http.StatusTooManyRequests)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// authAdmin guards the admin surface with the server's admin key.
func (s *Server) authAdmin(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(apiKey(r)), []byte(s.opts.AdminKey)) != 1 {
			s.unauthorized.Inc()
			http.Error(w, "admin key required", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// buildMux wires the full serving surface. Every route passes through
// the standard obs HTTP middleware, so request counts, latencies, and
// error rates land on /metrics route-by-route.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	wire := func(route string, h http.Handler) {
		// The obs route label is the pattern minus any method prefix, so
		// "POST /operations" and "GET /operations" share one label.
		path := route
		if i := strings.IndexByte(route, ' '); i >= 0 {
			path = route[i+1:]
		}
		mux.Handle(route, obs.Middleware(s.reg, routeLabel(path), h))
	}

	// Data plane: tenant-authenticated, rate-limited.
	wire("/ingest", s.authTenant(s.serveIngest))
	wire("/profiles", s.authTenant(s.serveProfiles))
	wire("/scan", s.authTenant(s.serveScan))

	// Async operations.
	wire("POST /operations", s.authTenant(s.serveCreateOperation))
	wire("GET /operations", s.authTenant(s.serveListOperations))
	wire("GET /operations/{id}", s.authTenant(s.serveGetOperation))

	// Admin plane.
	wire("POST /admin/tenants", s.authAdmin(s.serveRegisterTenant))
	wire("GET /admin/tenants", s.authAdmin(s.serveListTenants))

	// Observability, unauthenticated like every worker's.
	obs.RegisterDebug(mux, s.reg, s.tracer)
	s.mux = mux
}

// tenantOf returns the request's tenant state (set by authTenant).
func tenantOf(r *http.Request) *tenantState {
	st, _ := r.Context().Value(tenantKey).(*tenantState)
	return st
}

// serveIngest delegates to the tenant's own ingest handler over the
// namespacing store, so tenant A saturating its ingest slots draws 429s
// itself without queueing tenant B.
func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request) {
	s.rateLimit(s.handlersOf(tenantOf(r)).ingest).ServeHTTP(w, r)
}

// serveProfiles is /profiles with the same per-tenant isolation.
func (s *Server) serveProfiles(w http.ResponseWriter, r *http.Request) {
	s.rateLimit(s.handlersOf(tenantOf(r)).profiles).ServeHTTP(w, r)
}

// serveScan runs a pipeline scan of one tenant service through the
// worker's own /scan lifecycle. The service name is namespaced before it
// reaches the pipeline, so a tenant can only ever scan (or learn the
// existence of) its own series.
func (s *Server) serveScan(w http.ResponseWriter, r *http.Request) {
	st := tenantOf(r)
	s.rateLimit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.worker.ServeScan(w, r, func(ctx context.Context, service string, scanTime time.Time) (*distributed.ScanResponse, error) {
			return s.scanTenantService(ctx, st, service, scanTime)
		})
	})).ServeHTTP(w, r)
}

// scanTenantService scans one tenant service through the shared worker
// (serialized on its mutex) and strips the namespace from the response.
func (s *Server) scanTenantService(ctx context.Context, st *tenantState, service string, scanTime time.Time) (*distributed.ScanResponse, error) {
	resp, err := s.worker.Scan(ctx, namespaceService(st.ID, service), scanTime)
	if err != nil {
		return nil, err
	}
	for i := range resp.Reported {
		r := &resp.Reported[i]
		r.Service = unnamespaceService(st.ID, r.Service)
		r.Metric = strings.Replace(r.Metric, namespaceService(st.ID, ""), "", 1)
	}
	return resp, nil
}

// opParams is the POST /operations request body.
type opParams struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// pollRetryAfter is the Retry-After hint attached to non-terminal
// /operations/{id} responses.
const pollRetryAfter = time.Second

// serveCreateOperation accepts a job, journals it, enqueues it, and
// answers 202 with Location: /operations/{id} — the Heketi async-op
// contract: the caller polls the Location, honoring Retry-After, until
// the operation is terminal.
func (s *Server) serveCreateOperation(w http.ResponseWriter, r *http.Request) {
	st := tenantOf(r)
	s.rateLimit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body opParams
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if _, ok := s.queue.runners[body.Kind]; !ok {
			http.Error(w, fmt.Sprintf("unknown operation kind %q (have %v)",
				body.Kind, s.queue.kinds()), http.StatusBadRequest)
			return
		}
		op, err := s.ops.create(st.ID, body.Kind, body.Params, s.now())
		if err != nil {
			http.Error(w, "journaling operation: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if err := s.queue.submit(op.ID); err != nil {
			s.ops.transition(op.ID, OpFailed, nil, err.Error(), s.now())
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Location", "/operations/"+op.ID)
		w.Header().Set("Retry-After", distributed.RetryAfterSeconds(pollRetryAfter))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(op)
	})).ServeHTTP(w, r)
}

// serveGetOperation is the poll target. Non-terminal operations carry a
// Retry-After hint. A tenant asking for another tenant's operation gets
// the same 404 as for a nonexistent one — existence is tenant-scoped.
func (s *Server) serveGetOperation(w http.ResponseWriter, r *http.Request) {
	st := tenantOf(r)
	op := s.ops.Get(r.PathValue("id"))
	if op == nil || op.Tenant != st.ID {
		http.Error(w, "no such operation", http.StatusNotFound)
		return
	}
	if !op.Status.Terminal() {
		w.Header().Set("Retry-After", distributed.RetryAfterSeconds(pollRetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(op)
}

// serveListOperations lists the tenant's operations in creation order.
func (s *Server) serveListOperations(w http.ResponseWriter, r *http.Request) {
	st := tenantOf(r)
	ops := s.ops.ListTenant(st.ID)
	if ops == nil {
		ops = []*Operation{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ops)
}

// registerTenantRequest is the POST /admin/tenants body.
type registerTenantRequest struct {
	Name   string `json:"name"`
	Quotas Quotas `json:"quotas"`
}

// serveRegisterTenant creates a tenant; the response is the only place
// the API key ever appears.
func (s *Server) serveRegisterTenant(w http.ResponseWriter, r *http.Request) {
	var body registerTenantRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	t, err := s.tenants.Register(body.Name, body.Quotas, s.opts.DefaultQuotas, s.now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.tenantsGauge.Set(float64(len(s.tenants.List())))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(t)
}

// serveListTenants lists tenants, keys redacted.
func (s *Server) serveListTenants(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.tenants.List())
}
