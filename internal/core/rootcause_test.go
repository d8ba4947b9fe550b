package core

import (
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/tsdb"
)

// table2Sets reproduces paper Table 2's before/after sample sets.
func table2Sets() (before, after *stacktrace.SampleSet) {
	before = stacktrace.NewSampleSet()
	before.AddTraceString("A->B->C", 0.01)
	before.AddTraceString("B->E->F", 0.02)
	before.AddTraceString("D->B->C", 0.02)
	before.AddTraceString("B->E->D", 0.04)
	before.AddTraceString("Other", 0.91)
	after = stacktrace.NewSampleSet()
	after.AddTraceString("A->B->C", 0.02)
	after.AddTraceString("B->E->F", 0.03)
	after.AddTraceString("D->B->C", 0.02)
	after.AddTraceString("B->E->D", 0.06)
	after.AddTraceString("G->B->D", 0.01)
	after.AddTraceString("Other", 0.86)
	return before, after
}

func TestGCPUAttributionTable2(t *testing.T) {
	before, after := table2Sets()
	r := NewRegressionRecord(tsdb.ID("svc", "B", "gcpu"))
	change := &changelog.Change{ID: "D1", Subroutines: []string{"A", "E"}}
	got := gcpuAttribution(r, change, before, after)
	if !approx(got, 0.8, 1e-9) {
		t.Errorf("attribution = %v, want 0.8 (paper Table 2)", got)
	}
	// A change touching nothing relevant attributes ~0.
	unrelated := &changelog.Change{ID: "D2", Subroutines: []string{"Other"}}
	if got := gcpuAttribution(r, unrelated, before, after); got > 0.01 {
		t.Errorf("unrelated attribution = %v", got)
	}
	// No modified subroutines -> 0.
	empty := &changelog.Change{ID: "D3"}
	if got := gcpuAttribution(r, empty, before, after); got != 0 {
		t.Errorf("empty attribution = %v", got)
	}
}

// buildRCARegression creates a gcpu regression for subroutine B at minute
// 100 of the analysis window.
func buildRCARegression(t *testing.T) *Regression {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	hist := noisy(rng, 300, 0.09, 0.002)
	analysis := append(noisy(rng, 100, 0.09, 0.002), noisy(rng, 100, 0.14, 0.002)...)
	ws := buildWindows(t, hist, analysis, nil)
	r := regressionAt(t, ws, 100)
	r.Metric = tsdb.ID("svc", "B", "gcpu")
	r.Service, r.Entity, r.Name = "svc", "B", "gcpu"
	return r
}

func TestAnalyzeRootCauseRanksTrueCauseFirst(t *testing.T) {
	r := buildRCARegression(t)
	before, after := table2Sets()
	var log changelog.Log
	// True cause: touches A and E, deployed right at the change point.
	log.Record(&changelog.Change{
		ID: "D-true", Service: "svc", Title: "optimize E encode path",
		Subroutines: []string{"A", "E"},
		DeployedAt:  r.ChangePointTime.Add(-time.Minute),
	})
	// Decoys deployed in the window.
	log.Record(&changelog.Change{
		ID: "D-decoy1", Service: "svc", Title: "update dashboard colors",
		Subroutines: []string{"Other"},
		DeployedAt:  r.ChangePointTime.Add(-10 * time.Hour),
	})
	log.Record(&changelog.Change{
		ID: "D-decoy2", Service: "svc", Title: "refactor logging",
		Subroutines: []string{"Logging"},
		DeployedAt:  r.ChangePointTime.Add(-20 * time.Hour),
	})
	AnalyzeRootCause(RootCauseConfig{}, &log, r, before, after)
	if len(r.RootCauses) == 0 {
		t.Fatal("no root causes suggested")
	}
	if r.RootCauses[0].ChangeID != "D-true" {
		t.Errorf("top candidate = %s, want D-true (scores: %+v)",
			r.RootCauses[0].ChangeID, r.RootCauses)
	}
	if r.RootCauses[0].Attribution < 0.5 {
		t.Errorf("attribution = %v", r.RootCauses[0].Attribution)
	}
}

func TestAnalyzeRootCauseTextSimilarity(t *testing.T) {
	// Paper §5.6: no change directly modifies foo, but one mentions it.
	r := buildRCARegression(t)
	r.Metric = tsdb.ID("svc", "foo", "gcpu")
	r.Service, r.Entity, r.Name = "svc", "foo", "gcpu"
	var log changelog.Log
	log.Record(&changelog.Change{
		ID: "D-mentions", Service: "svc",
		Title:       "loosening constraints for foo",
		Description: "relaxes the validation the svc foo gcpu path performs",
		DeployedAt:  r.ChangePointTime.Add(-time.Hour),
	})
	log.Record(&changelog.Change{
		ID: "D-noise", Service: "svc", Title: "bump dependency",
		DeployedAt: r.ChangePointTime.Add(-2 * time.Hour),
	})
	AnalyzeRootCause(RootCauseConfig{MinScore: 0.05}, &log, r, nil, nil)
	if len(r.RootCauses) == 0 {
		t.Fatal("no root causes suggested")
	}
	if r.RootCauses[0].ChangeID != "D-mentions" {
		t.Errorf("top = %s, want D-mentions", r.RootCauses[0].ChangeID)
	}
}

func TestAnalyzeRootCauseConfidenceBar(t *testing.T) {
	// All candidates are irrelevant: FBDetect should suggest nothing
	// rather than guess (paper §6.3: "not pinpointing a single root cause
	// is actually appropriate").
	r := buildRCARegression(t)
	var log changelog.Log
	log.Record(&changelog.Change{
		ID: "D-x", Service: "svc", Title: "zzz qqq",
		Subroutines: []string{"Unrelated"},
		DeployedAt:  r.ChangePointTime.Add(-20 * time.Hour),
	})
	AnalyzeRootCause(RootCauseConfig{MinScore: 0.5}, &log, r, nil, nil)
	if len(r.RootCauses) != 0 {
		t.Errorf("low-confidence causes suggested: %+v", r.RootCauses)
	}
}

func TestAnalyzeRootCauseNoLogOrCandidates(t *testing.T) {
	r := buildRCARegression(t)
	AnalyzeRootCause(RootCauseConfig{}, nil, r, nil, nil)
	if r.RootCauses != nil {
		t.Error("nil log should yield no causes")
	}
	var empty changelog.Log
	AnalyzeRootCause(RootCauseConfig{}, &empty, r, nil, nil)
	if r.RootCauses != nil {
		t.Error("empty log should yield no causes")
	}
}

func TestAnalyzeRootCauseTopK(t *testing.T) {
	r := buildRCARegression(t)
	before, after := table2Sets()
	var log changelog.Log
	for i := 0; i < 10; i++ {
		log.Record(&changelog.Change{
			ID: "D" + string(rune('0'+i)), Service: "svc",
			Title:       "change touching B path svc gcpu",
			Subroutines: []string{"E"},
			DeployedAt:  r.ChangePointTime.Add(-time.Duration(i+1) * time.Hour),
		})
	}
	AnalyzeRootCause(RootCauseConfig{MinScore: 0.05}, &log, r, before, after)
	if len(r.RootCauses) > 3 {
		t.Errorf("top-k not applied: %d candidates", len(r.RootCauses))
	}
}

func TestDeployCorrelation(t *testing.T) {
	r := buildRCARegression(t)
	atCP := &changelog.Change{DeployedAt: r.ChangePointTime}
	farBefore := &changelog.Change{DeployedAt: r.Windows.Analysis.Start.Add(-time.Hour)}
	cAt := deployCorrelation(r, atCP)
	cFar := deployCorrelation(r, farBefore)
	if cAt < 0.8 {
		t.Errorf("correlation at change point = %v, want high", cAt)
	}
	if cFar != 0 {
		t.Errorf("out-of-window deploy correlation = %v, want 0", cFar)
	}
}
