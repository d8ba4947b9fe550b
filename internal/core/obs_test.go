package core

import (
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// instrumentedFixture simulates a service with an injected regression and
// returns an instrumented pipeline plus the scan time.
func instrumentedFixture(t *testing.T, reg *obs.Registry, tracer *obs.Tracer) (*Pipeline, time.Time) {
	t.Helper()
	tree := pipelineTree(t)
	svc := pipelineService(t, tree, 11)
	db := tsdb.New(time.Minute)
	var log changelog.Log
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     t0.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.2) },
		Record: &changelog.Change{ID: "D100", Subroutines: []string{"decode"}},
	})
	end := t0.Add(9 * time.Hour)
	if err := svc.Run(db, &log, t0, end); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(pipelineConfig(), db, &log, fleet.SamplesOf(svc, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(reg, tracer)
	return p, end
}

func counterValue(reg *obs.Registry, name string, labels obs.Labels) float64 {
	return reg.NewCounter(name, "", labels).Value()
}

func TestPipelineInstrumentationMatchesFunnel(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4)
	p, end := instrumentedFixture(t, reg, tracer)

	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.ChangePoints == 0 || len(res.Reported) == 0 {
		t.Fatalf("fixture lost its regression; funnel %+v", res.Funnel)
	}

	f := res.Funnel
	metrics := len(p.db.Metrics("websvc"))
	for _, tc := range []struct {
		stage   string
		in, out int
	}{
		{StageChangePoint, metrics, f.ChangePoints},
		{StageWentAway, f.ChangePoints, f.AfterWentAway},
		{StageSeasonality, f.AfterWentAway, f.AfterSeasonality},
		{StageThreshold, f.AfterSeasonality + f.LongTermChangePoints, f.AfterThreshold},
		{StageSameMerger, f.AfterThreshold, f.AfterSameMerger},
		{StageSOMDedup, f.AfterSameMerger, f.AfterSOMDedup},
		{StageCostShift, f.AfterSOMDedup, f.AfterCostShift},
		{StagePairwise, f.AfterCostShift, f.AfterPairwise},
		{StageLongTerm, metrics, f.LongTermChangePoints},
		// A disabled pop-shift stage passes its input through, and root
		// cause removes nothing.
		{StagePopShift, f.AfterSOMDedup, f.AfterPopShift},
		{StageRootCause, f.AfterPairwise, f.AfterPairwise},
	} {
		l := obs.Labels{"stage": tc.stage}
		if got := counterValue(reg, MetricStageIn, l); got != float64(tc.in) {
			t.Errorf("%s in = %v, want %d", tc.stage, got, tc.in)
		}
		if got := counterValue(reg, MetricStageOut, l); got != float64(tc.out) {
			t.Errorf("%s out = %v, want %d", tc.stage, got, tc.out)
		}
	}

	// Per-metric detection latency: one observation per scanned metric.
	h := reg.NewHistogram(MetricStageDuration, "", nil, obs.Labels{"stage": StageChangePoint})
	if got := h.Snapshot().Count; got != uint64(metrics) {
		t.Errorf("changepoint latency observations = %d, want %d", got, metrics)
	}
	// Scan-level stages observe once per scan.
	for _, st := range []string{StageThreshold, StageSameMerger, StageSOMDedup, StageCostShift, StagePairwise, StageRootCause} {
		h := reg.NewHistogram(MetricStageDuration, "", nil, obs.Labels{"stage": st})
		if got := h.Snapshot().Count; got != 1 {
			t.Errorf("%s latency observations = %d, want 1", st, got)
		}
	}
	if got := counterValue(reg, MetricPipelineScans, nil); got != 1 {
		t.Errorf("scans = %v, want 1", got)
	}
	if got := counterValue(reg, MetricMetricsScanned, nil); got != float64(metrics) {
		t.Errorf("metrics scanned = %v, want %d", got, metrics)
	}

	// The scan left a trace with the stage spans and result attrs.
	traces := tracer.Recent(1)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Attrs["service"] != "websvc" {
		t.Errorf("trace attrs = %+v", tr.Attrs)
	}
	spanNames := make(map[string]bool)
	for _, s := range tr.Spans {
		spanNames[s.Name] = true
	}
	for _, want := range []string{"scan", "detect", StageThreshold, StageSameMerger, StageSOMDedup, StageCostShift, StagePairwise, StageRootCause} {
		if !spanNames[want] {
			t.Errorf("trace missing span %q (have %v)", want, spanNames)
		}
	}

	// StageTelemetry rebuilds the funnel table from the registry.
	rows := StageTelemetry(reg)
	if len(rows) == 0 {
		t.Fatal("no telemetry rows")
	}
	byStage := make(map[string]TelemetrySnapshot)
	for _, r := range rows {
		byStage[r.Stage] = r
	}
	if row := byStage[StageChangePoint]; row.In != float64(metrics) || row.Out != float64(f.ChangePoints) {
		t.Errorf("telemetry changepoint row = %+v", row)
	}
	if row := byStage[StagePairwise]; row.Out != float64(f.AfterPairwise) {
		t.Errorf("telemetry pairwise row = %+v", row)
	}
}

// TestPipelineStagesOrder pins the stage labels and their order: bench/
// builds its per-layer stage rows from PipelineStages.
func TestPipelineStagesOrder(t *testing.T) {
	want := []string{"changepoint", "longterm", "wentaway", "seasonality", "threshold",
		"same_merger", "som_dedup", "popshift", "costshift", "pairwise", "rootcause"}
	if len(PipelineStages) != len(want) {
		t.Fatalf("PipelineStages = %v, want %v", PipelineStages, want)
	}
	for i := range want {
		if PipelineStages[i] != want[i] {
			t.Fatalf("PipelineStages = %v, want %v", PipelineStages, want)
		}
	}
}

// stageObservations returns how many latency observations each stage's
// histogram holds.
func stageObservations(reg *obs.Registry) map[string]uint64 {
	n := make(map[string]uint64, len(PipelineStages))
	for _, st := range PipelineStages {
		n[st] = reg.NewHistogram(MetricStageDuration, "", nil, obs.Labels{"stage": st}).Snapshot().Count
	}
	return n
}

// TestMergerEmptiedScanStopsThere: a scan whose candidates the merger
// all calls duplicates observes threshold and same_merger once, and no
// later stage, and opens no span for them.
func TestMergerEmptiedScanStopsThere(t *testing.T) {
	p, end := instrumentedFixture(t, nil, nil)
	if _, err := p.Scan("websvc", end); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4)
	p.Instrument(reg, tracer)
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Funnel; f.AfterThreshold == 0 || f.AfterSameMerger != 0 {
		t.Fatalf("re-scan funnel %+v, want threshold survivors the merger all drops", f)
	}
	seen := stageObservations(reg)
	for _, st := range []string{StageThreshold, StageSameMerger} {
		if seen[st] != 1 {
			t.Errorf("%s latency observations = %d, want 1", st, seen[st])
		}
	}
	later := []string{StageSOMDedup, StagePopShift, StageCostShift, StagePairwise, StageRootCause}
	for _, st := range later {
		if seen[st] != 0 {
			t.Errorf("%s latency observations = %d after the merger emptied the scan, want 0", st, seen[st])
		}
	}
	traces := tracer.Recent(1)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	for _, s := range traces[0].Spans {
		for _, st := range append(later, "samples") {
			if s.Name == st {
				t.Errorf("span %q opened after the merger emptied the scan", st)
			}
		}
	}
}

// TestPopShiftStageInstrumented: with the stage enabled, popshift is
// observed once per scan and its in/out counters chain between som_dedup
// and costshift.
func TestPopShiftStageInstrumented(t *testing.T) {
	cfg := incrementalConfig()
	cfg.PopShift.Enabled = true
	p, err := NewPipeline(cfg, popShiftFixture(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p.Instrument(reg, nil)
	res, err := p.Scan("pop", t0.Add(540*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel
	if len(res.PopulationShifts) == 0 || f.AfterPopShift >= f.AfterSOMDedup {
		t.Fatalf("fixture lost its mix shift; funnel %+v", f)
	}
	if got := stageObservations(reg)[StagePopShift]; got != 1 {
		t.Errorf("popshift latency observations = %d, want 1", got)
	}
	for _, tc := range []struct {
		stage   string
		in, out int
	}{
		{StageSOMDedup, f.AfterSameMerger, f.AfterSOMDedup},
		{StagePopShift, f.AfterSOMDedup, f.AfterPopShift},
		{StageCostShift, f.AfterPopShift, f.AfterCostShift},
	} {
		l := obs.Labels{"stage": tc.stage}
		if got := counterValue(reg, MetricStageIn, l); got != float64(tc.in) {
			t.Errorf("%s in = %v, want %d", tc.stage, got, tc.in)
		}
		if got := counterValue(reg, MetricStageOut, l); got != float64(tc.out) {
			t.Errorf("%s out = %v, want %d", tc.stage, got, tc.out)
		}
	}
	if got := counterValue(reg, MetricPopShifts, nil); got != float64(len(res.PopulationShifts)) {
		t.Errorf("%s = %v, want %d", MetricPopShifts, got, len(res.PopulationShifts))
	}
}

// TestWentAwayTermCounters: every went-away verdict lands in exactly one
// outcome per term, the skips follow the evaluation order, and the kept
// count can be read back from the counters.
func TestWentAwayTermCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p, end := instrumentedFixture(t, reg, nil)
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel
	if f.ChangePoints == 0 {
		t.Fatalf("fixture lost its change points; funnel %+v", f)
	}
	count := func(term, outcome string) int {
		return int(counterValue(reg, MetricWentAwayTerms, obs.Labels{"term": term, "outcome": outcome}))
	}
	for _, term := range wentAwayTermLabels {
		if got := count(term, "true") + count(term, "false") + count(term, "skipped"); got != f.ChangePoints {
			t.Errorf("%s outcomes sum to %d, want one per change point (%d)", term, got, f.ChangePoints)
		}
	}
	if got := count("new_pattern", "skipped"); got != 0 {
		t.Errorf("new_pattern skipped = %d; it is always evaluated", got)
	}
	if got, want := count("gone_away", "skipped"), count("new_pattern", "true"); got != want {
		t.Errorf("gone_away skipped = %d, want new_pattern true = %d", got, want)
	}
	if got, want := count("significant_regression", "skipped"), count("new_pattern", "true")+count("gone_away", "true"); got != want {
		t.Errorf("significant_regression skipped = %d, want %d", got, want)
	}
	if got, want := count("lasting_trend", "skipped"), count("significant_regression", "skipped")+count("significant_regression", "false"); got != want {
		t.Errorf("lasting_trend skipped = %d, want %d", got, want)
	}
	if got := count("new_pattern", "true") + count("lasting_trend", "true"); got != f.AfterWentAway {
		t.Errorf("new_pattern true + lasting_trend true = %d, want kept = %d", got, f.AfterWentAway)
	}

	// One hand-made verdict per outcome column.
	reg = obs.NewRegistry()
	po := newPipelineObs(reg, nil)
	po.wentAwayDecided(WentAwayVerdict{GoneAway: true, Skipped: TermSignificantRegression | TermLastingTrend})
	for term, want := range map[string]string{
		"new_pattern": "false", "gone_away": "true", "significant_regression": "skipped", "lasting_trend": "skipped",
	} {
		for _, outcome := range wentAwayOutcomeLabels {
			got := counterValue(reg, MetricWentAwayTerms, obs.Labels{"term": term, "outcome": outcome})
			if (outcome == want) != (got == 1) {
				t.Errorf("%s/%s = %v, want the verdict counted under %s only", term, outcome, got, want)
			}
		}
	}
}

// TestScreenedCounter: fbdetect_changepoint_screened_total counts exactly
// the series whose change-point search the screen ended after CUSUM, and a
// checkpoint replay adds nothing.
func TestScreenedCounter(t *testing.T) {
	reg := obs.NewRegistry()
	p, end := instrumentedFixture(t, reg, nil)
	res, err := p.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, id := range p.alertableMetrics("websvc") {
		s, _, err := p.db.QueryViewStamped(id, end.Add(-p.cfg.Windows.Total()), end, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := p.cfg.Windows.Cut(s, end)
		if err != nil {
			continue
		}
		var buf []float64
		if _, screened := detectShortTerm(p.cfg, id, ws, end, &buf); screened {
			want++
		}
	}
	got := counterValue(reg, MetricCPScreened, nil)
	if want == 0 || got != float64(want) {
		t.Fatalf("%s = %v, want %d screened series", MetricCPScreened, got, want)
	}
	if scanned := counterValue(reg, MetricMetricsScanned, nil); got > scanned-float64(res.Funnel.ChangePoints) {
		t.Errorf("%v screened of %v scanned with %d change points", got, scanned, res.Funnel.ChangePoints)
	}
	if _, err := p.Scan("websvc", end); err != nil { // every series a checkpoint hit
		t.Fatal(err)
	}
	if again := counterValue(reg, MetricCPScreened, nil); again != got {
		t.Errorf("a checkpoint replay moved %s from %v to %v", MetricCPScreened, got, again)
	}
}

func TestMonitorInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	p, end := instrumentedFixture(t, reg, nil)
	mon, err := NewMonitor(p, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mon.Instrument(reg)
	mon.Watch("websvc")
	if got := reg.NewGauge(MetricWatchedServices, "", nil).Value(); got != 1 {
		t.Errorf("watched = %v, want 1", got)
	}
	if err := mon.ScanOnce(end); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, MetricScanCycles, nil); got != 1 {
		t.Errorf("cycles = %v, want 1", got)
	}
	if got := counterValue(reg, MetricMonitorReports, nil); got != float64(len(mon.Reports())) {
		t.Errorf("reports metric = %v, want %d", got, len(mon.Reports()))
	}
	if got := reg.NewGauge(MetricLastScanTimestamp, "", nil).Value(); got != float64(end.Unix()) {
		t.Errorf("last scan = %v, want %d", got, end.Unix())
	}
	if got := reg.NewHistogram(MetricScanCycleDuration, "", nil, nil).Snapshot().Count; got != 1 {
		t.Errorf("cycle duration observations = %d, want 1", got)
	}
}

func TestUninstrumentedPipelineUnchanged(t *testing.T) {
	// A pipeline without Instrument must behave identically (nil-safe
	// hooks) — this guards the hot path against accidental hard
	// dependencies on the registry.
	regged := obs.NewRegistry()
	pi, end := instrumentedFixture(t, regged, nil)
	plain, _ := instrumentedFixture(t, nil, nil) // Instrument(nil, nil) is a no-op
	ri, err := pi.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Scan("websvc", end)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Funnel != rp.Funnel {
		t.Errorf("instrumentation changed results: %+v vs %+v", ri.Funnel, rp.Funnel)
	}
	if len(ri.Reported) != len(rp.Reported) {
		t.Errorf("reported %d vs %d", len(ri.Reported), len(rp.Reported))
	}
}
