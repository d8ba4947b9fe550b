// Package controlplane is the long-lived multi-tenant API service over
// the detection stack: tenant registration with API-key auth, per-tenant
// namespacing of metric series into the shared sharded TSDB, per-tenant
// quotas and token-bucket rate limits on the data plane
// (/ingest, /profiles, /scan), and an async-operation framework
// (backfill, sweep) whose job state is journaled through the WAL so
// in-flight operations survive a SIGKILL. Every tenant's points and
// scans run on the server's own store and its embedded
// distributed.Worker; the server drives no worker ring.
//
// The paper's FBDetect runs as an always-on production service over
// hundreds of thousands of hosts; this package is the reproduction's
// equivalent front door — the piece that turns the detection library
// into something a tenant can register against. The shape
// follows Heketi's apps/server/middleware layering: handlers are thin,
// middleware owns auth/limits/metrics, and long-running work happens in
// journaled async operations polled at /operations/{id} with 202 +
// Location + Retry-After semantics.
package controlplane

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// Control-plane metric names.
const (
	MetricTenants         = "fbdetect_cp_tenants"
	MetricTenantRequests  = "fbdetect_cp_tenant_requests_total"
	MetricRateLimited     = "fbdetect_cp_rate_limited_total"
	MetricUnauthorized    = "fbdetect_cp_unauthorized_total"
	MetricQuotaRejections = "fbdetect_cp_quota_rejections_total"
	MetricOpsTotal        = "fbdetect_cp_operations_total"
	MetricOpsInFlight     = "fbdetect_cp_operations_in_flight"
	MetricRecoveredOps    = "fbdetect_cp_recovered_operations_total"
)

// Options configures a Server. Zero fields take defaults.
type Options struct {
	// DataDir is the server's durable root: the point WAL + snapshots
	// live in DataDir/tsdb, the tenant journal in DataDir/tenants.journal,
	// and the operation journal in DataDir/ops.journal. Required.
	DataDir string
	// AdminKey authenticates /admin/* and tenant registration. Required.
	AdminKey string
	// WAL tunes the point WAL (sync policy, fault injection).
	WAL wal.Options
	// DefaultQuotas fills unset fields of per-tenant quotas
	// (default: 1000 series, 50 req/s, burst 100).
	DefaultQuotas Quotas
	// JobWorkers is the async-operation concurrency (default 2).
	JobWorkers int
	// Clock drives rate limiting and operation timestamps; tests inject
	// a resilience.FakeClock. Default real time.
	Clock resilience.Clock
}

// step is the TSDB step.
const step = time.Minute

func (o Options) withDefaults() Options {
	if o.DefaultQuotas.MaxSeries <= 0 {
		o.DefaultQuotas.MaxSeries = 1000
	}
	if o.DefaultQuotas.RatePerSec <= 0 {
		o.DefaultQuotas.RatePerSec = 50
	}
	if o.DefaultQuotas.Burst <= 0 {
		o.DefaultQuotas.Burst = 100
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.Clock == nil {
		o.Clock = resilience.RealClock()
	}
	return o
}

// Server is the control plane: a durable store, the tenant table, the
// journaled operation queue and the embedded scan pipeline, all behind
// one authenticated mux.
type Server struct {
	opts    Options
	clock   resilience.Clock
	reg     *obs.Registry
	tracer  *obs.Tracer
	store   *wal.Store
	tenants *TenantStore
	ops     *OpStore
	queue   *queue
	pipe    *core.Pipeline
	worker  *distributed.Worker
	mux     *http.ServeMux

	// Per-tenant data-plane handlers, built lazily: each tenant gets
	// its own in-flight semaphores, so one tenant saturating its ingest
	// slots draws 429s without queueing another tenant's batches.
	handlersMu sync.Mutex
	handlers   map[string]tenantHandlers

	// metric handles (nil-safe when uninstrumented)
	tenantsGauge *obs.Gauge
	unauthorized *obs.Counter
	recoveredOps *obs.Counter
}

// NewServer opens (or recovers) the control plane in opts.DataDir:
// the point store replays its WAL, the tenant journal rebuilds the
// tenant table (recounting series quotas against the recovered store),
// and every journaled non-terminal operation is requeued so it reaches
// a terminal state without client intervention.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("controlplane: DataDir required")
	}
	if opts.AdminKey == "" {
		return nil, fmt.Errorf("controlplane: AdminKey required")
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	obs.RegisterBuildInfo(reg, "fbdetect-server")

	store, err := wal.OpenStore(filepath.Join(opts.DataDir, "tsdb"),
		step, opts.WAL, tsdb.Options{}, reg)
	if err != nil {
		return nil, err
	}
	now := opts.Clock.Now()
	tenants, err := openTenantStore(filepath.Join(opts.DataDir, "tenants.journal"),
		store.DB, opts.DefaultQuotas, now)
	if err != nil {
		store.Close()
		return nil, err
	}
	opStore, recovered, err := openOpStore(filepath.Join(opts.DataDir, "ops.journal"))
	if err != nil {
		tenants.Close()
		store.Close()
		return nil, err
	}

	pipe, err := core.NewPipeline(distributed.ServedConfig(), store.DB, nil, nil)
	if err != nil {
		opStore.Close()
		tenants.Close()
		store.Close()
		return nil, err
	}
	pipe.Instrument(reg, tracer)

	s := &Server{
		opts:    opts,
		clock:   opts.Clock,
		reg:     reg,
		tracer:  tracer,
		store:   store,
		tenants: tenants,
		ops:     opStore,
		pipe:    pipe,
		worker:  distributed.NewWorker("control-plane", pipe),

		handlers: make(map[string]tenantHandlers),
	}
	s.worker.Instrument(reg)
	opStore.Instrument(reg)
	s.tenantsGauge = reg.NewGauge(MetricTenants, "Registered tenants.", nil)
	s.tenantsGauge.Set(float64(len(tenants.List())))
	s.unauthorized = reg.NewCounter(MetricUnauthorized,
		"Requests rejected for missing or invalid credentials.", nil)
	s.recoveredOps = reg.NewCounter(MetricRecoveredOps,
		"Non-terminal operations requeued during crash recovery.", nil)

	s.queue = newQueue(opStore, s.now, tracer)
	s.registerRunners()
	s.queue.start(opts.JobWorkers)
	for _, op := range recovered {
		s.recoveredOps.Inc()
		if err := s.queue.submit(op.ID); err != nil {
			return nil, err
		}
	}
	s.buildMux()
	return s, nil
}

// now is the server's single time source.
func (s *Server) now() time.Time { return s.clock.Now() }

// Handler returns the server's full HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (tests assert against it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the durable point store.
func (s *Server) Store() *wal.Store { return s.store }

// Snapshot serializes the point store and compacts its WAL.
func (s *Server) Snapshot() error { return s.store.Snapshot() }

// Tenants reports how many tenants are registered.
func (s *Server) Tenants() int { return len(s.tenants.List()) }

// RecoveredOps reports how many non-terminal operations the last open
// requeued — the restart log line operators grep for after a crash.
func (s *Server) RecoveredOps() int {
	n := 0
	for _, op := range s.ops.ListTenant("") {
		if op.Attempts > 0 && !op.Status.Terminal() {
			n++
		}
	}
	return n
}

// Close drains the job queue (canceling in-flight runners), snapshots
// the point store, and closes every journal. A SIGKILL skips all of
// this — that is what the journals are for.
func (s *Server) Close() error {
	s.queue.stop()
	err := s.store.Snapshot()
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := s.tenants.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := s.ops.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// tenantStore wraps the shared durable store for one tenant: every
// appended point is rewritten into the tenant's namespace, the series
// quota is enforced batch-atomically, and new series/services are
// tracked (and journaled) so quota usage survives restarts.
type tenantStore struct {
	s  *Server
	st *tenantState
}

// AppendBatch implements distributed.IngestStore.
func (t tenantStore) AppendBatch(pts []tsdb.Point) (int, error) {
	ts := t.s.tenants
	nspts := make([]tsdb.Point, len(pts))
	for i, p := range pts {
		nspts[i] = tsdb.Point{ID: namespaceID(t.st.ID, p.ID), T: p.T, V: p.V}
	}
	if err := tsdb.CheckIDLen(nspts); err != nil {
		return 0, idLenError{err}
	}

	ts.mu.Lock()
	var added []tsdb.MetricID
	for _, p := range nspts {
		if _, ok := t.st.series[p.ID]; !ok {
			t.st.series[p.ID] = struct{}{} // provisional; rolled back on reject
			added = append(added, p.ID)
		}
	}
	if max := t.st.Quotas.MaxSeries; len(added) > 0 && len(t.st.series) > max {
		// Batches apply atomically: reject the whole thing and roll the
		// provisional series back, so a tenant sitting exactly at its
		// quota keeps writing to existing series but cannot create more.
		for _, id := range added {
			delete(t.st.series, id)
		}
		have := len(t.st.series)
		ts.mu.Unlock()
		t.s.quotaRejected(t.st.ID)
		return 0, &quotaError{tenant: t.st.ID, have: have, add: len(added), max: max}
	}
	newServices := false
	for _, p := range nspts {
		if svc, _, _ := p.ID.Parts(); svc != "" {
			plain := unnamespaceService(t.st.ID, svc)
			if _, ok := t.st.services[plain]; !ok {
				t.st.services[plain] = struct{}{}
				newServices = true
			}
		}
	}
	var jerr error
	if newServices {
		jerr = ts.journalLocked(t.st)
	}
	ts.mu.Unlock()
	if jerr != nil {
		return 0, jerr
	}

	return t.s.store.AppendBatch(nspts)
}

// tenantHandlers is one tenant's data plane over its namespacing store.
type tenantHandlers struct {
	ingest   *distributed.IngestHandler
	profiles *distributed.ProfilesHandler
}

// handlersOf returns (building on first use) the tenant's handlers.
func (s *Server) handlersOf(st *tenantState) tenantHandlers {
	s.handlersMu.Lock()
	defer s.handlersMu.Unlock()
	h, ok := s.handlers[st.ID]
	if !ok {
		store := tenantStore{s: s, st: st}
		h = tenantHandlers{
			ingest:   distributed.NewIngestHandler(store, distributed.IngestOptions{}),
			profiles: distributed.NewProfilesHandler(store, distributed.ProfilesOptions{}),
		}
		// Handler metrics are registry-global: every tenant's handlers
		// share the same counter handles (the registry dedups by name
		// and labels), so instrumenting each one is idempotent.
		h.ingest.Instrument(s.reg)
		h.profiles.Instrument(s.reg)
		s.handlers[st.ID] = h
	}
	return h
}

// quotaRejected bumps the tenant's quota-rejection counter.
func (s *Server) quotaRejected(tenant string) {
	s.reg.NewCounter(MetricQuotaRejections,
		"Batches rejected by the per-tenant series quota.", obs.Labels{"tenant": tenant}).Inc()
}
