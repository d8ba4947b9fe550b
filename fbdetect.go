// Package fbdetect is an open reproduction of FBDetect ("Catching Tiny
// Performance Regressions at Hyperscale through In-Production Monitoring",
// SOSP 2024): an in-production performance-regression detection pipeline
// that catches regressions as small as 0.005% by combining
// subroutine-level stack-trace sampling (the gCPU metric) with a stack of
// statistical filters — change-point detection, a went-away detector for
// transient issues, STL-based seasonality filtering, cost-shift analysis,
// SOM and pairwise deduplication, and root-cause ranking.
//
// # Quick start
//
//	db := fbdetect.NewDB(time.Minute)
//	// ... ingest metrics with db.Append(fbdetect.ID("svc", "sub", "gcpu"), t, v) ...
//	det, err := fbdetect.NewDetector(fbdetect.Config{
//		Threshold: 0.0005,
//		Windows: fbdetect.WindowConfig{
//			Historic: 10 * 24 * time.Hour,
//			Analysis: 4 * time.Hour,
//			Extended: 6 * time.Hour,
//		},
//	}, db, nil, nil)
//	res, err := det.Scan("svc", time.Now())
//	for _, r := range res.Reported { fmt.Println(r) }
//
// Preset configurations matching the paper's Table 1 are available from
// Presets and the per-workload constructors (FrontFaaSSmall, InvoicerShort,
// and so on). ReadCSV and ReadFolded load telemetry and profiler output
// from files; ParseConfig and LoadConfig read JSON job configs.
//
// This package is the detector library only. The fleet, Kraken, TAO,
// PyPerf and tracing simulators the reproduction is evaluated on, and the
// worker, WAL and control-plane services, live in their own packages
// under internal/ and are imported from there.
package fbdetect

import (
	"io"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/report"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// Core detection types.
type (
	// Config configures one detection job (thresholds, windows, and
	// per-stage tuning); see the paper's Table 1 presets in presets.go.
	Config = core.Config
	// WindowConfig is the historic/analysis/extended window layout of the
	// paper's Figure 4.
	WindowConfig = timeseries.WindowConfig
	// Detector is the FBDetect pipeline: change-point detection, went-away
	// and seasonality filtering, deduplication, cost-shift analysis, and
	// root-cause ranking (Figure 6).
	Detector = core.Pipeline
	// Regression is one detected regression with its magnitude, change
	// point, and ranked root-cause candidates.
	Regression = core.Regression
	// ScanResult is the outcome of one Detector.Scan.
	ScanResult = core.ScanResult
	// RootCauseConfig tunes root-cause ranking.
	RootCauseConfig = core.RootCauseConfig
	// SampleProvider supplies stack-trace samples for cost-shift analysis
	// and root-cause attribution.
	SampleProvider = core.SampleProvider
)

// Storage and change-tracking types.
type (
	// DB is the in-memory time-series store the detector scans.
	DB = tsdb.DB
	// MetricID identifies one time series ("service/entity/metric").
	MetricID = tsdb.MetricID
	// Series is a regularly spaced time series.
	Series = timeseries.Series
	// ChangeLog records deployed code and configuration changes for
	// root-cause analysis.
	ChangeLog = changelog.Log
	// Change is one deployed code or configuration change.
	Change = changelog.Change
)

// Stack-trace types (paper §4).
type (
	// Frame is one stack frame with optional class and metadata.
	Frame = stacktrace.Frame
	// Trace is a stack trace, root first.
	Trace = stacktrace.Trace
	// SampleSet aggregates weighted stack-trace samples and answers gCPU
	// queries.
	SampleSet = stacktrace.SampleSet
)

// CodeChange marks a ChangeLog entry as a code change.
const CodeChange = changelog.Code

// NewDB returns a time-series store whose series share the given step.
func NewDB(step time.Duration) *DB { return tsdb.New(step) }

// ID builds a MetricID from service, entity (subroutine or endpoint; may
// be empty for service-level metrics), and metric name.
func ID(service, entity, metric string) MetricID { return tsdb.ID(service, entity, metric) }

// NewDetector builds a detection pipeline over db. log (for root-cause
// analysis) and samples (for cost-shift analysis and gCPU attribution) may
// be nil, disabling those features.
func NewDetector(cfg Config, db *DB, log *ChangeLog, samples SampleProvider) (*Detector, error) {
	return core.NewPipeline(cfg, db, log, samples)
}

// Monitor runs a Detector continuously, scanning watched services at the
// re-run interval as FBDetect does in production.
type Monitor = core.Monitor

// NewMonitor wraps a detector with periodic scanning; interval 0 falls
// back to the config's RerunInterval (then 1h).
func NewMonitor(det *Detector, interval time.Duration) (*Monitor, error) {
	return core.NewMonitor(det, interval)
}

// WriteScanReport renders a scan result — funnel summary plus one ticket
// per reported regression — to w.
func WriteScanReport(w io.Writer, res *ScanResult, log *ChangeLog) error {
	return report.WriteScan(w, res, log)
}

// NewSampleSet returns an empty stack-trace sample set.
func NewSampleSet() *SampleSet { return stacktrace.NewSampleSet() }

// ReadFolded parses collapsed stack traces ("frame;frame count" lines, as
// produced by perf/pprof flame-graph tooling) into a SampleSet — the
// integration point for real profiler output.
func ReadFolded(r io.Reader) (*SampleSet, error) { return stacktrace.ReadFolded(r) }

// ParseTrace builds a Trace from "A->B->C" notation.
func ParseTrace(s string) Trace { return stacktrace.ParseTrace(s) }
