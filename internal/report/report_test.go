package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
	"fbdetect/internal/popshift"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

func sampleRegression() *core.Regression {
	r := core.NewRegressionRecord(tsdb.ID("frontfaas", "serialize", "gcpu"))
	r.ChangePointTime = time.Date(2024, 8, 1, 7, 0, 0, 0, time.UTC)
	r.Before, r.After = 0.033, 0.0355
	r.Delta = 0.0025
	r.Relative = 0.0757
	r.PValue = 1e-12
	return r
}

func TestForRegressionWithRootCauses(t *testing.T) {
	r := sampleRegression()
	r.RootCauses = []core.RootCauseCandidate{
		{ChangeID: "D1001", Score: 0.86, Attribution: 1.0},
		{ChangeID: "D1002", Score: 0.14, Attribution: 0},
	}
	var log changelog.Log
	log.Record(&changelog.Change{ID: "D1001", Title: "new encoder", Author: "alice",
		DeployedAt: r.ChangePointTime})
	ticket := ForRegression(r, &log)
	if !strings.Contains(ticket.Title, "frontfaas/serialize") {
		t.Errorf("title = %q", ticket.Title)
	}
	for _, want := range []string{"D1001", "new encoder", "alice", "attribution=100%",
		"short-term detection", "2024-08-01T07:00:00Z"} {
		if !strings.Contains(ticket.Body, want) {
			t.Errorf("body missing %q:\n%s", want, ticket.Body)
		}
	}
}

func TestForRegressionNoRootCause(t *testing.T) {
	r := sampleRegression()
	ticket := ForRegression(r, nil)
	if !strings.Contains(ticket.Body, "No root-cause candidate") {
		t.Errorf("body = %q", ticket.Body)
	}
}

func TestForRegressionServiceLevel(t *testing.T) {
	r := core.NewRegressionRecord(tsdb.ID("svc", "", "throughput"))
	r.Delta, r.Relative = 120, 0.12
	ticket := ForRegression(r, nil)
	if !strings.Contains(ticket.Title, "(service level)") {
		t.Errorf("title = %q", ticket.Title)
	}
	if !strings.Contains(ticket.Body, "+12.00% relative") {
		t.Errorf("body = %q", ticket.Body)
	}
}

// TestWriteFunnel: the funnel line carries every stage count, the
// long-term change points included, whether it renders one scan or a
// sweep's merged funnel.
func TestWriteFunnel(t *testing.T) {
	var merged core.Funnel
	merged.Add(core.Funnel{ChangePoints: 4, LongTermChangePoints: 1, AfterThreshold: 3})
	merged.Add(core.Funnel{ChangePoints: 2, LongTermChangePoints: 2, AfterThreshold: 2})
	var buf bytes.Buffer
	if err := WriteFunnel(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "scan: 6 change points (3 long-term)") ||
		!strings.Contains(out, "threshold 5") {
		t.Errorf("funnel line = %q, want 6 change points (3 long-term) and threshold 5", out)
	}
}

func TestWriteScan(t *testing.T) {
	res := &core.ScanResult{
		Reported: []*core.Regression{sampleRegression()},
		Funnel: core.Funnel{
			ChangePoints: 50, AfterWentAway: 5,
			AfterSOMDedup: 3, AfterPopShift: 2, AfterPairwise: 1,
		},
		PopulationShifts: []*core.PopulationShift{{
			Service:  "svc",
			Name:     "gcpu",
			Delta:    0.0004,
			Relative: 0.08,
			Verdict: popshift.Verdict{
				IsShift: true,
				Reason:  "delta explained by population mix change",
				Decomp:  popshift.Decomposition{MixChange: 0.6, Strata: 2},
			},
		}},
	}
	var buf bytes.Buffer
	if err := WriteScan(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "50 change points") {
		t.Errorf("funnel line missing: %q", out)
	}
	if !strings.Contains(out, "pop-shift 2") {
		t.Errorf("funnel line missing pop-shift stage: %q", out)
	}
	if !strings.Contains(out, "population shift (not a regression): svc (service level) gcpu") {
		t.Errorf("population-shift section missing: %q", out)
	}
	if !strings.Contains(out, "mix moved 60.0%") {
		t.Errorf("verdict detail missing: %q", out)
	}
	if !strings.Contains(out, "[fbdetect]") {
		t.Errorf("ticket missing: %q", out)
	}
}

func TestSparkline(t *testing.T) {
	// Rising series: first rune lowest, last highest.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := []rune(Sparkline(vals, 20))
	if len(s) != 20 {
		t.Fatalf("width = %d", len(s))
	}
	if s[0] != '▁' || s[19] != '█' {
		t.Errorf("sparkline = %q", string(s))
	}
	// Constant series renders at the lowest level.
	for _, r := range Sparkline([]float64{5, 5, 5, 5}, 4) {
		if r != '▁' {
			t.Errorf("constant sparkline rune = %q", r)
		}
	}
	// Degenerate inputs.
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate sparkline should be empty")
	}
	// Width clamped to the series length.
	if got := Sparkline([]float64{1, 2}, 10); len([]rune(got)) != 2 {
		t.Errorf("clamped width = %d", len([]rune(got)))
	}
}

func TestTicketIncludesSparkline(t *testing.T) {
	r := sampleRegression()
	vals := make([]float64, 120)
	for i := range vals {
		v := 0.033
		if i >= 60 {
			v = 0.0355
		}
		vals[i] = v
	}
	r.Windows.Analysis = timeseries.New(r.ChangePointTime.Add(-time.Hour), time.Minute, vals)
	r.ChangePoint = 60
	ticket := ForRegression(r, nil)
	if !strings.Contains(ticket.Body, "Analysis win:") {
		t.Errorf("sparkline missing:\n%s", ticket.Body)
	}
	if !strings.Contains(ticket.Body, "^") {
		t.Error("change-point marker missing")
	}
}
