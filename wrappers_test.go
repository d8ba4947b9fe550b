package fbdetect

// Tests that drive the root library together with the internal packages
// its callers import alongside it: reports, folded stacks, the PyPerf
// sampler, endpoint tracing and cost shift, and the scan fan-out.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/pyperf"
	"fbdetect/internal/report"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/tracing"
)

func TestTicketForAndWriteScanReport(t *testing.T) {
	db := NewDB(time.Minute)
	metric := ID("svc", "sub", "gcpu")
	start := testStart
	for i := 0; i < 540; i++ {
		v := 0.01
		if i >= 420 {
			v = 0.012
		}
		db.Append(metric, start.Add(time.Duration(i)*time.Minute), v)
	}
	det, err := NewDetector(Config{
		Threshold: 0.0005,
		Windows: WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Scan("svc", start.Add(9*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reported) == 0 {
		t.Fatal("no report to render")
	}
	ticket := report.ForRegression(res.Reported[0], nil)
	if !strings.Contains(ticket.Title, "svc/sub") {
		t.Errorf("ticket title = %q", ticket.Title)
	}
	var buf bytes.Buffer
	if err := WriteScanReport(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[fbdetect]") {
		t.Error("scan report missing ticket")
	}
}

func TestWriteFoldedPublic(t *testing.T) {
	ss := NewSampleSet()
	ss.Add(ParseTrace("a->b"), 2)
	var buf bytes.Buffer
	if err := stacktrace.WriteFolded(&buf, ss); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFolded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.GCPU("b") != 1 {
		t.Errorf("round trip gCPU = %v", back.GCPU("b"))
	}
}

func TestNewPySamplerPublic(t *testing.T) {
	s := pyperf.NewSampler(time.Millisecond, func() pyperf.Process {
		return pyperf.Process{
			NativeStack: []string{"_start", pyperf.EvalFrameSymbol},
			VCSHead:     pyperf.BuildVCS("main_py"),
		}
	})
	s.Start()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	if s.Count() == 0 {
		t.Error("sampler captured nothing")
	}
}

func TestTraceAggregatorPublic(t *testing.T) {
	agg := tracing.NewAggregator()
	err := agg.Record(&tracing.RequestTrace{
		TraceID: "t", Endpoint: "/x",
		Spans: []tracing.TraceSpan{{Subroutine: "s", CPU: time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := agg.Snapshot(); len(snap) != 1 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestCheckEndpointCostShiftPublic(t *testing.T) {
	db := NewDB(time.Minute)
	r := &Regression{}
	v := core.CheckEndpointCostShift(core.CostShiftConfig{}, db, r,
		WindowConfig{Historic: time.Hour, Analysis: time.Hour}, testStart)
	if v.IsCostShift {
		t.Error("empty inputs flagged")
	}
}

func TestLoadConfigFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	content := `{"threshold": 0.001, "windows": {"historic": "10h", "analysis": "2h"}}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Threshold != 0.001 {
		t.Errorf("threshold = %v", cfg.Threshold)
	}
}

func TestScanWorkerAndCoordinatorPublic(t *testing.T) {
	db := NewDB(time.Minute)
	det, err := NewDetector(Config{
		Threshold: 0.1,
		Windows:   WindowConfig{Historic: time.Hour, Analysis: time.Hour},
	}, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if distributed.NewWorker("w", det) == nil {
		t.Error("nil worker")
	}
	if _, err := distributed.NewCoordinator(nil, nil); err == nil {
		t.Error("empty coordinator accepted")
	}
	if c, err := distributed.NewCoordinator([]string{"http://x"}, nil); err != nil || c == nil {
		t.Errorf("coordinator: %v", err)
	}
}
