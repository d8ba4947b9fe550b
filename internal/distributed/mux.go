package distributed

import (
	"net/http"

	"fbdetect/internal/obs"
)

// NewMux builds the scan and operator routes of a scan worker:
//
//	/scan           the Worker, wrapped in the standard HTTP middleware
//	/metrics        Prometheus text format
//	/metrics.json   JSON snapshot with quantiles
//	/healthz        liveness probe
//	/debug/traces   recent scan traces (when tracer != nil)
//	/debug/pprof/*  live CPU/heap profiles of the worker itself
//
// reg may be nil, which degrades to an uninstrumented /scan plus an
// empty /metrics — the routes always exist so operators can probe any
// worker uniformly.
func NewMux(w *Worker, reg *obs.Registry, tracer *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/scan", obs.Middleware(reg, "/scan", w))
	obs.RegisterDebug(mux, reg, tracer)
	return mux
}

// NewIngestMux is NewMux plus the streaming ingestion routes:
//
//	/ingest         NDJSON point batches appended to the worker's store
//	/profiles       raw pprof / folded-stack profiles folded into
//	                per-subroutine gCPU points
//
// the full serving surface of fbdetect-worker, whose series arrive over
// HTTP into its durable store.
func NewIngestMux(w *Worker, ing *IngestHandler, prof *ProfilesHandler, reg *obs.Registry, tracer *obs.Tracer) *http.ServeMux {
	mux := NewMux(w, reg, tracer)
	mux.Handle("/ingest", obs.Middleware(reg, "/ingest", ing))
	mux.Handle("/profiles", obs.Middleware(reg, "/profiles", prof))
	return mux
}
