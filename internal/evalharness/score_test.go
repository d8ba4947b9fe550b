package evalharness

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/tsdb"
)

func TestLabelMatches(t *testing.T) {
	onset := suiteEpoch.Add(13 * time.Hour)
	l := Label{
		Service:     "svc",
		Entities:    map[string]bool{"": true, "hot": true, "outer": true},
		Onset:       onset,
		MatchWindow: 30 * time.Minute,
	}
	cases := []struct {
		name    string
		service string
		entity  string
		cp      time.Time
		want    bool
	}{
		{"exact", "svc", "hot", onset, true},
		{"ancestor entity", "svc", "outer", onset.Add(10 * time.Minute), true},
		{"service-level entity", "svc", "", onset.Add(-10 * time.Minute), true},
		{"wrong service", "other", "hot", onset, false},
		{"wrong entity", "svc", "cold", onset, false},
		{"window edge", "svc", "hot", onset.Add(30 * time.Minute), true},
		{"past window", "svc", "hot", onset.Add(31 * time.Minute), false},
		{"before window", "svc", "hot", onset.Add(-31 * time.Minute), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := l.Matches(tc.service, tc.entity, tc.cp); got != tc.want {
				t.Errorf("Matches(%q, %q, %v) = %v, want %v",
					tc.service, tc.entity, tc.cp, got, tc.want)
			}
		})
	}
	nilEntities := Label{Service: "svc", Onset: onset}
	if !nilEntities.Matches("svc", "whatever", onset) {
		t.Error("nil Entities must accept any entity")
	}
}

// fakeReport fabricates a pipeline report for scoring tests.
func fakeReport(service, entity string, cp, detected time.Time, changeIDs ...string) *core.Regression {
	r := core.NewRegressionRecord(tsdb.ID(service, entity, "gcpu"))
	r.ChangePointTime = cp
	r.DetectedAt = detected
	for _, id := range changeIDs {
		r.RootCauses = append(r.RootCauses, core.RootCauseCandidate{ChangeID: id})
	}
	return r
}

func TestScoreConfusionMatrix(t *testing.T) {
	onset := suiteEpoch.Add(13 * time.Hour)
	s := &Suite{
		Name: "unit", TopK: 3, FleetScaleMagnitude: 0.0005,
		Scenarios: []Scenario{
			{Name: "pos", Class: ClassRegression},
			{Name: "neg", Class: ClassTransient},
			{Name: "quiet", Class: ClassControl},
		},
	}
	scenarios := map[string]Scenario{
		"pos": s.Scenarios[0], "neg": s.Scenarios[1], "quiet": s.Scenarios[2],
	}
	labels := []*labelState{
		{Label: Label{Scenario: "pos", Class: ClassRegression, Service: "pos",
			Onset: onset, Magnitude: 0.001, Expect: true, ChangeID: "pos-change"}},
		{Label: Label{Scenario: "neg", Class: ClassTransient, Service: "neg",
			Onset: onset, Expect: false}},
		{Label: Label{Scenario: "quiet", Class: ClassControl, Service: "quiet",
			Onset: suiteEpoch, Expect: false}},
	}
	reports := []*core.Regression{
		// True positive: matches the pos label, right change ranked first.
		fakeReport("pos", "", onset.Add(5*time.Minute), onset.Add(80*time.Minute), "pos-change"),
		// Leak from the transient scenario: a false positive.
		fakeReport("neg", "", onset, onset.Add(time.Hour)),
		// Report for a service the suite never built.
		fakeReport("alien", "", onset, onset.Add(time.Hour)),
	}

	rep := s.score(7, reports, scenarios, labels)
	if rep.TruePositiveReports != 1 || rep.FalsePositiveReports != 2 {
		t.Fatalf("TP/FP = %d/%d, want 1/2", rep.TruePositiveReports, rep.FalsePositiveReports)
	}
	if want := 1.0 / 3.0; rep.Precision != want {
		t.Errorf("precision = %v, want %v", rep.Precision, want)
	}
	if rep.Recall != 1 || rep.RecallFleetScale != 1 {
		t.Errorf("recall = %v fleet-scale %v, want 1 and 1", rep.Recall, rep.RecallFleetScale)
	}
	if rep.MeanTimeToDetect != 80 {
		t.Errorf("mean time-to-detect = %v, want 80", rep.MeanTimeToDetect)
	}
	if rep.TopKRootCause != 1 {
		t.Errorf("top-k root cause = %v, want 1", rep.TopKRootCause)
	}
	tr := rep.Classes[ClassTransient]
	if tr == nil || tr.SuppressionRate != 0 || len(tr.Leaks) != 1 {
		t.Errorf("transient class = %+v, want one leak and zero suppression", tr)
	}
	ctl := rep.Classes[ClassControl]
	if ctl == nil || ctl.SuppressionRate != 1 {
		t.Errorf("control class = %+v, want full suppression", ctl)
	}
}

func TestScoreDedupCollapse(t *testing.T) {
	onset := suiteEpoch.Add(13 * time.Hour)
	s := &Suite{
		Name: "unit", TopK: 3, FleetScaleMagnitude: 0.0005,
		Scenarios: []Scenario{{Name: "dup", Class: ClassDuplicate}},
	}
	scenarios := map[string]Scenario{"dup": s.Scenarios[0]}
	labels := []*labelState{
		{Label: Label{Scenario: "dup", Class: ClassDuplicate, Service: "dup",
			Onset: onset, Magnitude: 0.002, Expect: true, AffectedSeries: 3}},
	}
	// Two reports for a three-series event: one extra of two possible
	// duplicates slipped through, so the collapse rate is 1 - 1/2.
	reports := []*core.Regression{
		fakeReport("dup", "", onset, onset.Add(time.Hour)),
		fakeReport("dup", "", onset.Add(2*time.Minute), onset.Add(2*time.Hour)),
	}
	rep := s.score(7, reports, scenarios, labels)
	if rep.FalsePositiveReports != 0 {
		t.Fatalf("false positives = %d, want 0: %v",
			rep.FalsePositiveReports, rep.FalsePositiveDetails)
	}
	if rep.DedupCollapseRate != 0.5 {
		t.Errorf("collapse rate = %v, want 0.5", rep.DedupCollapseRate)
	}
	if cr := rep.Classes[ClassDuplicate]; cr.DuplicateReports != 1 {
		t.Errorf("duplicate reports = %d, want 1", cr.DuplicateReports)
	}
}

func TestBaselineCheck(t *testing.T) {
	rep := &Report{
		Precision:           0.95,
		Recall:              0.9,
		FleetScaleMagnitude: 0.0005,
		RecallFleetScale:    1,
		RecallByMagnitude: []MagnitudeBand{
			{MinMagnitude: 0, Labels: 10, Detected: 9, Recall: 0.9},
			{MinMagnitude: 0.0005, Labels: 8, Detected: 8, Recall: 1},
		},
		TopK: 3, TopKRootCause: 1, DedupCollapseRate: 1,
		MeanTimeToDetect: 80,
		Classes: map[Class]*ClassResult{
			ClassTransient: {Scenarios: 5, Suppressed: 5, SuppressionRate: 1},
			ClassSeasonal:  {Scenarios: 2, Suppressed: 1, SuppressionRate: 0.5},
		},
	}
	pass := &Baseline{
		Precision: 0.9, RecallFleetScale: 0.9, MinMagnitude: 0.0005,
		Suppression: map[Class]float64{ClassTransient: 0.8},
	}
	if v := pass.Check(rep); len(v) != 0 {
		t.Errorf("expected clean gate, got %v", v)
	}

	fail := &Baseline{
		Precision: 0.99, RecallFleetScale: 0.9, MinMagnitude: 0.0005,
		Suppression:   map[Class]float64{ClassSeasonal: 0.8, ClassControl: 0.8},
		TopKRootCause: 0.9, DedupCollapse: 0.9,
		MaxMeanTimeToDetectMinutes: 60,
	}
	v := fail.Check(rep)
	// precision, seasonal suppression, missing control class, TTD ceiling.
	if len(v) != 4 {
		t.Errorf("violations = %v, want 4 entries", v)
	}

	missingBand := &Baseline{Precision: 0.9, RecallFleetScale: 0.9, MinMagnitude: 0.123}
	if v := missingBand.Check(rep); len(v) != 1 {
		t.Errorf("missing magnitude band: violations = %v, want 1", v)
	}
}

func TestBaselineFromReport(t *testing.T) {
	rep := &Report{
		Precision: 1, RecallFleetScale: 1, FleetScaleMagnitude: 0.0005,
		TopKRootCause: 1, DedupCollapseRate: 1,
		Classes: map[Class]*ClassResult{
			ClassTransient: {Scenarios: 5, SuppressionRate: 1},
			ClassControl:   {Scenarios: 2, SuppressionRate: 1},
		},
	}
	b := BaselineFromReport(rep, 0.1)
	if b.Precision != 0.9 || b.RecallFleetScale != 0.9 {
		t.Errorf("relaxed floors = %v/%v, want 0.9/0.9", b.Precision, b.RecallFleetScale)
	}
	if b.Suppression[ClassTransient] != 0.9 {
		t.Errorf("transient floor = %v, want 0.9", b.Suppression[ClassTransient])
	}
	if _, ok := b.Suppression[ClassSeasonal]; ok {
		t.Error("classes with no scenarios must not get floors")
	}
	// Hard floors cap the back-off: a huge margin cannot relax below them.
	b = BaselineFromReport(rep, 0.5)
	if b.Precision != 0.9 || b.Suppression[ClassControl] != 0.8 {
		t.Errorf("hard floors not enforced: %+v", b)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Suite: "unit", Seed: 7, Scenarios: 3, Precision: 0.5,
		Classes: map[Class]*ClassResult{
			ClassRegression: {Scenarios: 1, PositiveLabels: 1, Detected: 1, Recall: 1},
		},
		RecallByMagnitude: []MagnitudeBand{{MinMagnitude: 0.0005, Labels: 1, Detected: 1, Recall: 1}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Suite != rep.Suite || got.Seed != rep.Seed || got.Precision != rep.Precision {
		t.Errorf("round trip = %+v, want %+v", got, rep)
	}
	if got.Classes[ClassRegression] == nil || got.Classes[ClassRegression].Recall != 1 {
		t.Errorf("class map lost in round trip: %+v", got.Classes)
	}
}

func TestBaselineFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	want := &Baseline{
		Precision: 0.9, RecallFleetScale: 0.95, MinMagnitude: 0.0005,
		Suppression: map[Class]float64{ClassTransient: 0.8},
	}
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision != want.Precision || got.RecallFleetScale != want.RecallFleetScale ||
		got.Suppression[ClassTransient] != want.Suppression[ClassTransient] {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestScaleForDelta(t *testing.T) {
	tree, target, err := scenarioTree("unit", 3)
	if err != nil {
		t.Fatal(err)
	}
	before := tree.GCPU(target)
	factor, err := scaleForDelta(tree, target, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.ScaleSelfWeight(target, factor); err != nil {
		t.Fatal(err)
	}
	after := tree.GCPU(target)
	if diff := after - before - 0.002; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("delta = %v, want 0.002 (off by %v)", after-before, diff)
	}
	if _, err := scaleForDelta(tree, "missing", 0.001); err == nil {
		t.Error("unknown subroutine accepted")
	}
	if _, err := scaleForDelta(tree, target, 1.0); err == nil {
		t.Error("overflowing delta accepted")
	}
}
