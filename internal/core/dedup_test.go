package core

import (
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/stacktrace"
	"fbdetect/internal/tsdb"
)

func TestSameRegressionMerger(t *testing.T) {
	m := NewSameRegressionMerger()
	r1 := NewRegressionRecord(tsdb.ID("s", "e", "gcpu"))
	r1.ChangePointTime = t0
	if m.IsDuplicate(r1) {
		t.Error("first sighting is not a duplicate")
	}
	// Same metric, change point 2h later (same underlying regression seen
	// from an overlapping window).
	r2 := NewRegressionRecord(tsdb.ID("s", "e", "gcpu"))
	r2.ChangePointTime = t0.Add(2 * time.Hour)
	if !m.IsDuplicate(r2) {
		t.Error("overlapping re-detection should be a duplicate")
	}
	// Same metric, far later: a new regression.
	r3 := NewRegressionRecord(tsdb.ID("s", "e", "gcpu"))
	r3.ChangePointTime = t0.Add(48 * time.Hour)
	if m.IsDuplicate(r3) {
		t.Error("distant regression should not be a duplicate")
	}
	// Different metric at the same time: not a duplicate here (SOMDedup
	// handles cross-metric merging).
	r4 := NewRegressionRecord(tsdb.ID("s", "other", "gcpu"))
	r4.ChangePointTime = t0
	if m.IsDuplicate(r4) {
		t.Error("different metric should not be a duplicate")
	}
}

func TestImportanceScorePrefersBigRareRootCaused(t *testing.T) {
	w := [4]float64{0.2, 0.6, 0.1, 0.1}
	big := &Regression{Delta: 0.05, Relative: 0.5}
	small := &Regression{Delta: 0.0001, Relative: 0.01}
	if ImportanceScore(w, big, 0) <= ImportanceScore(w, small, 0) {
		t.Error("bigger regression should score higher")
	}
	// Popular (widely invoked) subroutines score lower.
	r := &Regression{Delta: 0.01, Relative: 0.1}
	if ImportanceScore(w, r, 0.9) >= ImportanceScore(w, r, 0.01) {
		t.Error("popular subroutine should score lower")
	}
	// Having a root-cause candidate helps.
	withRC := &Regression{Delta: 0.01, Relative: 0.1,
		RootCauses: []RootCauseCandidate{{ChangeID: "c"}}}
	withoutRC := &Regression{Delta: 0.01, Relative: 0.1}
	if ImportanceScore(w, withRC, 0.5) <= ImportanceScore(w, withoutRC, 0.5) {
		t.Error("root-caused regression should score higher")
	}
}

// mkDedupRegression builds a regression with an analysis window series for
// clustering features.
func mkDedupRegression(t *testing.T, metric tsdb.MetricID, rng *rand.Rand, shape float64) *Regression {
	t.Helper()
	hist := noisy(rng, 100, 10, 0.1)
	analysis := append(noisy(rng, 50, 10, 0.1), noisy(rng, 50, 10+shape, 0.1)...)
	ws := buildWindows(t, hist, analysis, nil)
	svc, ent, name := metric.Parts()
	r := &Regression{Metric: metric, Service: svc, Entity: ent, Name: name, Group: -1}
	r.Windows = ws
	r.ChangePoint = 50
	r.ChangePointTime = ws.Analysis.TimeAt(50)
	r.Before, r.After = 10, 10+shape
	r.Delta = shape
	r.Relative = shape / 10
	return r
}

func TestSOMDedupGroupsSimilarRegressions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var regs []*Regression
	// Ten near-identical regressions in related metrics (callers of the
	// same regressed subroutine), plus one very different regression.
	for i := 0; i < 10; i++ {
		m := tsdb.ID("svc", "feed_render_caller_"+string(rune('a'+i)), "gcpu")
		regs = append(regs, mkDedupRegression(t, m, rng, 0.5))
	}
	outlier := mkDedupRegression(t, tsdb.ID("svc", "ads_scoring", "gcpu"), rng, 8.0)
	regs = append(regs, outlier)

	res := SOMDedup(DedupConfig{SOMSeed: 3}, regs, nil)
	if len(res.Groups) >= len(regs) {
		t.Errorf("no deduplication: %d groups for %d regressions", len(res.Groups), len(regs))
	}
	if len(res.Representatives) != len(res.Groups) {
		t.Fatal("representative per group expected")
	}
	// The outlier must not share a group with the 0.5-shaped regressions.
	outlierGroup := outlier.Group
	for _, r := range regs[:10] {
		if r.Group == outlierGroup {
			t.Error("outlier merged with unrelated regressions")
		}
	}
	// Every regression got a group.
	for i, r := range regs {
		if r.Group < 0 {
			t.Errorf("regression %d ungrouped", i)
		}
	}
}

func TestSOMDedupEdgeCases(t *testing.T) {
	if res := SOMDedup(DedupConfig{}, nil, nil); len(res.Groups) != 0 {
		t.Error("empty input should produce no groups")
	}
	rng := rand.New(rand.NewSource(2))
	one := []*Regression{mkDedupRegression(t, tsdb.ID("s", "e", "gcpu"), rng, 1)}
	res := SOMDedup(DedupConfig{}, one, nil)
	if len(res.Groups) != 1 || res.Representatives[0] != 0 {
		t.Errorf("single regression: %+v", res)
	}
}

func TestSOMDedupRepresentativeHasHighestImportance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := mkDedupRegression(t, tsdb.ID("svc", "sub_a", "gcpu"), rng, 0.4)
	big := mkDedupRegression(t, tsdb.ID("svc", "sub_b", "gcpu"), rng, 0.6)
	cfg := DedupConfig{SOMSeed: 1}
	res := SOMDedup(cfg, []*Regression{small, big}, nil)
	// If they grouped together, the representative must be the big one.
	if len(res.Groups) == 1 {
		if res.Representatives[0] != 1 {
			t.Error("representative should be the larger regression")
		}
	}
}

func TestPairwiseDedupMergesAcrossMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// A gCPU regression and a correlated throughput regression at the
	// same time with related metric IDs.
	g := mkDedupRegression(t, tsdb.ID("svc", "feed_render", "gcpu"), rng, 0.5)
	thr := mkDedupRegression(t, tsdb.ID("svc", "feed_render", "throughput"), rng, 0.5)
	unrelated := mkDedupRegression(t, tsdb.ID("othersvc", "db_io", "latency"), rng, 3.0)

	samples := stacktrace.NewSampleSet()
	samples.AddTraceString("main->feed_render", 50)
	samples.AddTraceString("main->db_io", 50)

	d := NewPairwiseDeduper(samples)
	if _, merged := d.Merge(g); merged {
		t.Error("first regression cannot merge")
	}
	if _, merged := d.Merge(thr); !merged {
		t.Error("correlated same-entity regression should merge")
	}
	if _, merged := d.Merge(unrelated); merged {
		t.Error("unrelated regression should form its own group")
	}
	if len(d.Groups()) != 2 {
		t.Errorf("groups = %d, want 2", len(d.Groups()))
	}
}

func TestPairwiseDedupSharedRootCauseBoost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mkDedupRegression(t, tsdb.ID("svc", "render_encode", "gcpu"), rng, 0.5)
	b := mkDedupRegression(t, tsdb.ID("svc", "fetch_decode_other", "gcpu"), rng, 0.5)
	a.RootCauses = []RootCauseCandidate{{ChangeID: "D42"}}
	b.RootCauses = []RootCauseCandidate{{ChangeID: "D42"}}
	d := NewPairwiseDeduper(nil)
	d.Merge(a)
	if _, merged := d.Merge(b); !merged {
		t.Error("shared root cause should pull regressions together")
	}
}

func TestSortGroupsBySize(t *testing.T) {
	g1 := &RegressionGroup{ID: 0, Members: make([]*Regression, 1)}
	g2 := &RegressionGroup{ID: 1, Members: make([]*Regression, 3)}
	groups := []*RegressionGroup{g1, g2}
	SortGroupsBySize(groups)
	if groups[0] != g2 {
		t.Error("largest group should come first")
	}
}
