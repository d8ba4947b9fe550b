package core

import (
	"strconv"
	"time"

	"fbdetect/internal/obs"
)

// Pipeline stage names, as they appear in the stage-latency and funnel
// metrics' stage label. Order matches Figure 6's execution order.
const (
	StageChangePoint = "changepoint"
	StageLongTerm    = "longterm"
	StageWentAway    = "wentaway"
	StageSeasonality = "seasonality"
	StageThreshold   = "threshold"
	StageSameMerger  = "same_merger"
	StageSOMDedup    = "som_dedup"
	StagePopShift    = "popshift"
	StageCostShift   = "costshift"
	StagePairwise    = "pairwise"
	StageRootCause   = "rootcause"
)

// PipelineStages lists every stage in execution order. bench/ builds its
// per-layer stage rows from this list.
var PipelineStages = []string{
	StageChangePoint, StageLongTerm, StageWentAway, StageSeasonality,
	StageThreshold, StageSameMerger, StageSOMDedup, StagePopShift,
	StageCostShift, StagePairwise, StageRootCause,
}

// Pipeline metric names.
const (
	MetricStageDuration  = "fbdetect_stage_duration_seconds"
	MetricStageIn        = "fbdetect_stage_in_total"
	MetricStageOut       = "fbdetect_stage_out_total"
	MetricPipelineScans  = "fbdetect_pipeline_scans_total"
	MetricMetricsScanned = "fbdetect_pipeline_metrics_scanned_total"
	MetricViewPoints     = "fbdetect_tsdb_view_points_total"
	MetricCheckpointHits = "fbdetect_checkpoint_hits_total"
	MetricCheckpointMiss = "fbdetect_checkpoint_misses_total"
	MetricPopShifts      = "fbdetect_popshift_verdicts_total"
	MetricWentAwayTerms  = "fbdetect_wentaway_terms_total"
	MetricCPScreened     = "fbdetect_changepoint_screened_total"
)

// Unregistered; bench/run.go's core.stl_cache_hit_share row reads them (as 0) until the next benchmark PR drops both.
const (
	MetricSTLCacheHits   = "fbdetect_stl_cache_hits_total"
	MetricSTLCacheMisses = "fbdetect_stl_cache_misses_total"
)

// pipelineObs holds the pre-created metric handles for the pipeline hot
// path, so a scan never takes the registry lock. A nil *pipelineObs (the
// uninstrumented default) makes every hook a no-op.
type pipelineObs struct {
	tracer   *obs.Tracer
	stageDur map[string]*obs.Histogram
	stageIn  map[string]*obs.Counter
	stageOut map[string]*obs.Counter
	scans    *obs.Counter
	scanned  *obs.Counter

	viewPoints *obs.Counter
	screened   *obs.Counter
	cpHits     *obs.Counter
	cpMisses   *obs.Counter
	popShifts  *obs.Counter

	// wentAway[term][outcome], indexed as wentAwayTermLabels and
	// wentAwayOutcomeLabels are.
	wentAway [len(wentAwayTermLabels)][len(wentAwayOutcomeLabels)]*obs.Counter
}

// Label values of fbdetect_wentaway_terms_total. Terms are in
// WentAwayTerms bit order, outcomes in the order of the constants below.
var (
	wentAwayTermLabels    = [...]string{"new_pattern", "gone_away", "significant_regression", "lasting_trend"}
	wentAwayOutcomeLabels = [...]string{"true", "false", "skipped"}
)

const (
	outcomeTrue = iota
	outcomeFalse
	outcomeSkipped
)

func newPipelineObs(reg *obs.Registry, tracer *obs.Tracer) *pipelineObs {
	po := &pipelineObs{
		tracer:   tracer,
		stageDur: make(map[string]*obs.Histogram, len(PipelineStages)),
		stageIn:  make(map[string]*obs.Counter, len(PipelineStages)),
		stageOut: make(map[string]*obs.Counter, len(PipelineStages)),
		scans: reg.NewCounter(MetricPipelineScans,
			"Pipeline scans performed.", nil),
		scanned: reg.NewCounter(MetricMetricsScanned,
			"Time series examined by the per-metric detection fan-out.", nil),
		viewPoints: reg.NewCounter(MetricViewPoints,
			"Window points materialised from tsdb views during scans: the analysis window of every series scanned, the historic and extended windows only behind a change point or the long-term path (checkpoint hits materialise nothing).", nil),
		screened: reg.NewCounter(MetricCPScreened,
			"Series the change-point stage let go after its CUSUM pass, because no split could pass the likelihood-ratio test as an increase (no EM, no test run).", nil),
		cpHits: reg.NewCounter(MetricCheckpointHits,
			"Detector-checkpoint hits (per-metric detection skipped entirely).", nil),
		cpMisses: reg.NewCounter(MetricCheckpointMiss,
			"Detector-checkpoint misses (per-metric detection performed).", nil),
		popShifts: reg.NewCounter(MetricPopShifts,
			"Candidates reclassified as population mix-shifts instead of regressions.", nil),
	}
	for t, term := range wentAwayTermLabels {
		for o, outcome := range wentAwayOutcomeLabels {
			po.wentAway[t][o] = reg.NewCounter(MetricWentAwayTerms,
				"Went-away predicate terms by outcome, per candidate decided (checkpoint replays decide nothing); skipped terms were not computed because earlier terms had fixed the verdict.",
				obs.Labels{"term": term, "outcome": outcome})
		}
	}
	for _, st := range PipelineStages {
		l := obs.Labels{"stage": st}
		po.stageDur[st] = reg.NewHistogram(MetricStageDuration,
			"Latency of each pipeline stage (per metric for the detection stages, per scan otherwise).",
			nil, l)
		po.stageIn[st] = reg.NewCounter(MetricStageIn,
			"Regression candidates entering each pipeline stage (the Table 3 funnel).", l)
		po.stageOut[st] = reg.NewCounter(MetricStageOut,
			"Regression candidates surviving each pipeline stage (the Table 3 funnel).", l)
	}
	return po
}

// timed begins a stage-latency observation: pass the returned start to
// observe when the stage completes. Both are nil-safe, so call sites need
// no guards, and neither allocates — they bracket stages that run per
// series.
func (po *pipelineObs) timed() time.Time {
	if po == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe records the time since start against the stage's histogram.
func (po *pipelineObs) observe(stage string, start time.Time) {
	if po == nil {
		return
	}
	po.stageDur[stage].Observe(time.Since(start).Seconds())
}

// scanCounted adds one detection worker's tallies for a scan: checkpoint
// lookups, window points materialised and screened series. Nil-safe.
func (po *pipelineObs) scanCounted(c scanCounts) {
	if po == nil {
		return
	}
	po.cpHits.Add(float64(c.cpHits))
	po.cpMisses.Add(float64(c.cpMisses))
	po.viewPoints.Add(float64(c.viewPoints))
	po.screened.Add(float64(c.screened))
}

// wentAwayDecided counts each term of one went-away verdict as true,
// false or skipped. Nil-safe.
func (po *pipelineObs) wentAwayDecided(v WentAwayVerdict) {
	if po == nil {
		return
	}
	for t, val := range [...]bool{v.NewPattern, v.GoneAway, v.SignificantRegression, v.LastingTrend} {
		outcome := outcomeFalse
		switch {
		case v.Skipped&(1<<t) != 0:
			outcome = outcomeSkipped
		case val:
			outcome = outcomeTrue
		}
		po.wentAway[t][outcome].Inc()
	}
}

// popShiftSuppressed counts candidates reclassified as population
// shifts this scan. Nil-safe.
func (po *pipelineObs) popShiftSuppressed(n int) {
	if po == nil || n == 0 {
		return
	}
	po.popShifts.Add(float64(n))
}

// finishScan closes a finalized scan's trace and records its funnel.
// Call only on an instrumented pipeline.
func (p *Pipeline) finishScan(d *serviceDetect) {
	d.root.Annotate("reported", attr(len(d.res.Reported)))
	d.root.Finish()
	d.trace.Finish()
	p.recordFunnel(len(d.metrics), d.res.Funnel)
}

// recordFunnel converts one scan's Funnel — the same struct
// Monitor.Stats() accumulates — into per-stage in/out counters, rather
// than re-counting candidates separately and risking drift. It walks the
// pipeline table: a stage's in is what the stages before it let through.
func (p *Pipeline) recordFunnel(metricsScanned int, f Funnel) {
	po := p.obs
	po.scans.Inc()
	po.scanned.Add(float64(metricsScanned))
	flowing := 0
	for i := range stages {
		st := &stages[i]
		in, joined := flowing, 0
		if st.source { // a new path: in are the metrics, out joins the flow
			in, joined = 0, flowing
			if st.enabled == nil || st.enabled(p) {
				in = metricsScanned
			}
		}
		out := in
		if st.count != nil {
			out = *st.count(&f)
		}
		flowing = joined + out
		if st.name != "" {
			po.stageIn[st.name].Add(float64(in))
			po.stageOut[st.name].Add(float64(out))
		}
	}
}

// Instrument publishes the pipeline's stage-latency histograms and
// funnel counters to reg and, when tracer is non-nil, records a trace of
// each scan into its ring buffer. Call before the first Scan; scans are
// not concurrent with instrumentation.
func (p *Pipeline) Instrument(reg *obs.Registry, tracer *obs.Tracer) {
	if reg == nil {
		return
	}
	p.obs = newPipelineObs(reg, tracer)
}

// Monitor metric names.
const (
	MetricScanCycleDuration = "fbdetect_scan_cycle_duration_seconds"
	MetricScanCycles        = "fbdetect_scan_cycles_total"
	MetricMonitorReports    = "fbdetect_monitor_reports_total"
	MetricMonitorScanErrors = "fbdetect_monitor_scan_errors_total"
	MetricLastScanTimestamp = "fbdetect_last_scan_timestamp_seconds"
	MetricWatchedServices   = "fbdetect_monitor_watched_services"
)

// monitorObs carries the monitor's operational metrics.
type monitorObs struct {
	cycleDur *obs.Histogram
	cycles   *obs.Counter
	reports  *obs.Counter
	errors   *obs.Counter
	lastScan *obs.Gauge
	watched  *obs.Gauge
}

func newMonitorObs(reg *obs.Registry) *monitorObs {
	return &monitorObs{
		cycleDur: reg.NewHistogram(MetricScanCycleDuration,
			"Wall time of one full scan cycle across every watched service.", nil, nil),
		cycles: reg.NewCounter(MetricScanCycles,
			"Scan cycles completed (one per re-run interval).", nil),
		reports: reg.NewCounter(MetricMonitorReports,
			"Regressions reported by the monitor.", nil),
		errors: reg.NewCounter(MetricMonitorScanErrors,
			"Per-service scan failures observed by the monitor.", nil),
		lastScan: reg.NewGauge(MetricLastScanTimestamp,
			"Scan time of the most recent completed cycle, unix seconds.", nil),
		watched: reg.NewGauge(MetricWatchedServices,
			"Services currently watched by the monitor.", nil),
	}
}

// Instrument publishes the monitor's scan-cycle metrics to reg. It does
// not instrument the wrapped pipeline; call Pipeline.Instrument for the
// stage-level view.
func (m *Monitor) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obs = newMonitorObs(reg)
	m.obs.watched.Set(float64(len(m.services)))
}

// TelemetrySnapshot is one stage's row of the -telemetry table: funnel
// in/out plus latency aggregates pulled back out of a Registry.
type TelemetrySnapshot struct {
	Stage     string
	In, Out   float64
	Calls     uint64
	P50, P95  float64
	TotalSecs float64
}

// StageTelemetry extracts the per-stage funnel and latency table from a
// registry previously attached with Pipeline.Instrument — what
// `fbdetect -telemetry` prints after a run.
func StageTelemetry(reg *obs.Registry) []TelemetrySnapshot {
	byStage := make(map[string]*TelemetrySnapshot, len(PipelineStages))
	rows := make([]TelemetrySnapshot, 0, len(PipelineStages))
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case MetricStageDuration, MetricStageIn, MetricStageOut:
		default:
			continue
		}
		for _, s := range m.Series {
			st := s.Labels["stage"]
			row := byStage[st]
			if row == nil {
				byStage[st] = &TelemetrySnapshot{Stage: st}
				row = byStage[st]
			}
			switch m.Name {
			case MetricStageIn:
				row.In = s.Value
			case MetricStageOut:
				row.Out = s.Value
			case MetricStageDuration:
				row.Calls = s.Histogram.Count
				row.P50 = s.Histogram.Quantile(0.5)
				row.P95 = s.Histogram.Quantile(0.95)
				row.TotalSecs = s.Histogram.Sum
			}
		}
	}
	for _, st := range PipelineStages {
		if row, ok := byStage[st]; ok {
			rows = append(rows, *row)
		}
	}
	return rows
}

// attr formats an int span attribute.
func attr(n int) string { return strconv.Itoa(n) }
