package fbdetect

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/fleet"
)

func TestParseConfig(t *testing.T) {
	in := `{
		"name": "my-job",
		"threshold": 0.0005,
		"rerun_interval": "2h",
		"windows": {"historic": "240h", "analysis": "4h", "extended": "6h"},
		"long_term": true,
		"went_away": {"sax_buckets": 30, "sax_validity_pct": 5},
		"root_cause": {"lookback": "48h", "top_k": 5}
	}`
	cfg, err := ParseConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "my-job" || cfg.Threshold != 0.0005 || !cfg.LongTerm {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Windows.Historic != 240*time.Hour || cfg.Windows.Extended != 6*time.Hour {
		t.Errorf("windows = %+v", cfg.Windows)
	}
	if cfg.RerunInterval != 2*time.Hour {
		t.Errorf("rerun = %v", cfg.RerunInterval)
	}
	if cfg.WentAway.SAXBuckets != 30 || cfg.WentAway.SAXValidityPct != 5 {
		t.Errorf("went away = %+v", cfg.WentAway)
	}
	if cfg.RootCause.Lookback != 48*time.Hour || cfg.RootCause.TopK != 5 {
		t.Errorf("root cause = %+v", cfg.RootCause)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":                  `{`,
		"unknown field":             `{"windows": {"historic": "1h", "analysis": "1h"}, "zzz": 1}`,
		"bad duration":              `{"windows": {"historic": "10 days", "analysis": "1h"}}`,
		"missing window":            `{"threshold": 0.1}`,
		"negative":                  `{"threshold": -1, "windows": {"historic": "1h", "analysis": "1h"}}`,
		"alpha above 1":             `{"alpha": 2, "windows": {"historic": "1h", "analysis": "1h"}}`,
		"negative top_k":            `{"root_cause": {"top_k": -3}, "windows": {"historic": "1h", "analysis": "1h"}}`,
		"negative sax_buckets":      `{"went_away": {"sax_buckets": -1}, "windows": {"historic": "1h", "analysis": "1h"}}`,
		"negative metric threshold": `{"metric_thresholds": {"cpu": -1}, "windows": {"historic": "1h", "analysis": "1h"}}`,
	}
	for name, in := range cases {
		if _, err := ParseConfig(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig("/nonexistent/fbdetect.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadCSVRoundTrip(t *testing.T) {
	in := `time,metric,value
2024-08-01T00:00:00Z,svc/sub/gcpu,0.5
2024-08-01T00:02:00Z,svc/sub/gcpu,0.7
2024-08-01T00:01:00Z,svc/sub/gcpu,0.6
2024-08-01T00:00:00Z,svc//cpu,0.4
`
	db, err := ReadCSV(strings.NewReader(in), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Full(ID("svc", "sub", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order rows were sorted before insertion.
	want := []float64{0.5, 0.6, 0.7}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := range want {
		if s.Values[i] != want[i] {
			t.Errorf("s[%d] = %v, want %v", i, s.Values[i], want[i])
		}
	}
	if db.Len() != 2 {
		t.Errorf("metric count = %d", db.Len())
	}
}

// csvRowGen is an io.Reader that synthesizes "time,metric,value" rows on
// the fly — rows round-robin across metrics with per-metric increasing
// timestamps — so large-ingest tests don't hold the whole file in memory.
type csvRowGen struct {
	rows, emitted, metrics int
	buf                    []byte
}

func (g *csvRowGen) Read(p []byte) (int, error) {
	base := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	for len(g.buf) < len(p) {
		if g.emitted == g.rows {
			break
		}
		if g.emitted == 0 {
			g.buf = append(g.buf, "time,metric,value\n"...)
		}
		m := g.emitted % g.metrics
		ts := base.Add(time.Duration(g.emitted/g.metrics) * time.Minute)
		g.buf = append(g.buf, ts.Format(time.RFC3339)...)
		g.buf = append(g.buf, ",svc/sub/m"...)
		g.buf = strconv.AppendInt(g.buf, int64(m), 10)
		g.buf = append(g.buf, ',')
		g.buf = strconv.AppendFloat(g.buf, float64(g.emitted%97)/10, 'f', -1, 64)
		g.buf = append(g.buf, '\n')
		g.emitted++
	}
	if len(g.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

func ingestAllocBytes(t *testing.T, rows int) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := ReadCSV(&csvRowGen{rows: rows, metrics: 20}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if db.Len() != 20 {
		t.Fatalf("ingested %d metrics, want 20", db.Len())
	}
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadCSVAllocationGrowthIsLinear(t *testing.T) {
	// Streaming ingestion must not accumulate the whole file before
	// inserting: allocation for 10x the rows must grow ~10x (linear), far
	// under the ~100x a quadratic path would show. The bound is loose
	// (25x) because the DB itself retains the larger dataset.
	if testing.Short() {
		t.Skip("1M-row ingest; skipped in -short")
	}
	small := ingestAllocBytes(t, 100_000)
	large := ingestAllocBytes(t, 1_000_000)
	ratio := float64(large) / float64(small)
	t.Logf("alloc bytes: 100k rows = %d, 1M rows = %d (ratio %.1fx)", small, large, ratio)
	if ratio > 25 {
		t.Fatalf("allocation grew %.1fx for 10x the rows; ingestion is super-linear", ratio)
	}
}

func TestReadCSVLargeReorderIsAnError(t *testing.T) {
	// A row behind the sliding reorder window must fail loudly rather
	// than be silently skipped by AppendBatch's idempotent-replay path.
	var sb strings.Builder
	sb.WriteString("time,metric,value\n")
	base := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	// Fill one full chunk (flushes at csvChunkRows), starting at t+1min so
	// a t+0 row afterwards lands behind the flushed series end.
	for i := 0; i < csvChunkRows; i++ {
		fmt.Fprintf(&sb, "%s,svc/sub/m,1\n", base.Add(time.Duration(i+1)*time.Minute).Format(time.RFC3339))
	}
	fmt.Fprintf(&sb, "%s,svc/sub/m,1\n", base.Format(time.RFC3339))
	if _, err := ReadCSV(strings.NewReader(sb.String()), time.Minute); err == nil {
		t.Fatal("row reordered past the chunk window was accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header": "a,b,c\n",
		"bad time":   "time,metric,value\nyesterday,m,1\n",
		"bad value":  "time,metric,value\n2024-08-01T00:00:00Z,m,abc\n",
		"bad fields": "time,metric,value\nonlyonefield\n",
		"empty":      "",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), time.Minute); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFleetsimCSVIsIngestable(t *testing.T) {
	// End-to-end: the fleet simulator's CSV output feeds straight back in.
	tree, err := fleet.NewTree(&fleet.Node{Name: "main", SelfWeight: 1,
		Children: []*fleet.Node{{Name: "work", SelfWeight: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fleet.NewService(fleet.Config{
		Name: "svc", Servers: 100, Step: time.Minute, SamplesPerStep: 1000,
		BaseCPU: 0.5, BaseThroughput: 10, Tree: tree, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(time.Minute)
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	if err := svc.Run(db, nil, start, start.Add(30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("time,metric,value\n")
	for _, id := range db.Metrics("svc") {
		s, _ := db.Full(id)
		for i, v := range s.Values {
			sb.WriteString(s.TimeAt(i).Format(time.RFC3339))
			sb.WriteString(",")
			sb.WriteString(string(id))
			sb.WriteString(",")
			sb.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
			sb.WriteString("\n")
		}
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Errorf("metric counts: %d vs %d", back.Len(), db.Len())
	}
}

func TestParseConfigMetricThresholds(t *testing.T) {
	in := `{
		"threshold": 0.0005,
		"windows": {"historic": "10h", "analysis": "2h"},
		"metric_thresholds": {"throughput": 0.05},
		"metric_relative": {"throughput": true}
	}`
	cfg, err := ParseConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MetricThresholds["throughput"] != 0.05 || !cfg.MetricRelative["throughput"] {
		t.Errorf("overrides = %v / %v", cfg.MetricThresholds, cfg.MetricRelative)
	}
}
