package fbdetect_test

// This file holds one benchmark per table and figure of the paper's
// evaluation, as required by DESIGN.md's per-experiment index. Each
// benchmark regenerates its experiment end to end; `go test -bench=.`
// therefore reproduces the full evaluation. Reported custom metrics
// surface each experiment's headline number.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fbdetect"
	"fbdetect/internal/experiments"
	"fbdetect/internal/fleet"
)

// BenchmarkFigure1 regenerates the three challenge panels of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure1(int64(i + 1))
		if !r.BFiltered || !r.CFiltered {
			b.Fatal("figure 1 verdicts wrong")
		}
	}
}

// BenchmarkFigure2 regenerates the process-level averaging figure.
func BenchmarkFigure2(b *testing.B) {
	var snr float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure2(int64(i + 1))
		snr = r.Points[2].SNR
	}
	b.ReportMetric(snr, "SNR@50M")
}

// BenchmarkFigure3 regenerates the subroutine-level averaging figure.
func BenchmarkFigure3(b *testing.B) {
	var snr float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure3(int64(i + 1))
		snr = r.Points[2].SNR
	}
	b.ReportMetric(snr, "SNR@50k")
}

// BenchmarkTable1 runs all twelve workload configurations.
func BenchmarkTable1(b *testing.B) {
	detected := 0
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(int64(i + 1))
		detected = 0
		for _, row := range r.Rows {
			if row.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "rows-detected")
}

// BenchmarkTable2 regenerates the root-cause attribution example.
func BenchmarkTable2(b *testing.B) {
	var attribution float64
	for i := 0; i < b.N; i++ {
		attribution = experiments.RunTable2().Attribution
	}
	b.ReportMetric(attribution, "attribution")
}

// BenchmarkFigure5 regenerates the PyPerf stack reconstruction.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !experiments.RunFigure5().Correct {
			b.Fatal("reconstruction incorrect")
		}
	}
}

// BenchmarkFigure7 regenerates the went-away robustness scenario.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure7(int64(i + 1))
		if r.SpikeKept || !r.RegressionKept {
			b.Fatal("figure 7 verdicts wrong")
		}
	}
}

// BenchmarkTable3 runs the week-long three-workload filtering funnel; this
// is the heaviest benchmark (tens of seconds per iteration).
func BenchmarkTable3(b *testing.B) {
	var wentAwayReduction float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable3()
		f := r.Columns[0].Funnel
		wentAwayReduction = float64(f.ChangePoints+f.LongTermChangePoints) /
			float64(f.AfterWentAway)
	}
	b.ReportMetric(wentAwayReduction, "went-away-reduction")
}

// BenchmarkTable4 regenerates the detected-magnitude distribution.
func BenchmarkTable4(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.RunTable4(int64(i + 1)).All)
	}
	b.ReportMetric(float64(n), "detections")
}

// BenchmarkFigure8 regenerates the FBDetect-vs-EGADS comparison.
func BenchmarkFigure8(b *testing.B) {
	var fp float64
	for i := 0; i < b.N; i++ {
		fp = experiments.RunFigure8(int64(i + 1)).FBDetect.FPRate
	}
	b.ReportMetric(fp, "fbdetect-FP-rate")
}

// BenchmarkPyPerfOverhead reproduces §6.6: microbenchmark throughput with
// sampling on and off.
func BenchmarkPyPerfOverhead(b *testing.B) {
	var overhead1Hz float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunOverhead(300 * time.Millisecond)
		overhead1Hz = r.Points[1].OverheadPc
	}
	b.ReportMetric(overhead1Hz, "overhead-pct@1Hz")
}

// BenchmarkPipeline measures one full detection scan over a simulated
// service (the Figure 6 pipeline end to end).
func BenchmarkPipeline(b *testing.B) {
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "handler", SelfWeight: 20, Children: []*fleet.Node{
			{Name: "serialize", SelfWeight: 10},
		}},
		{Name: "gc", SelfWeight: 9},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := fleet.NewService(fleet.Config{
		Name: "bench", Servers: 2000, Step: time.Minute,
		SamplesPerStep: 1e5, BaseCPU: 0.4, CPUNoise: 0.05,
		BaseThroughput: 500, Tree: tree, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     start.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("serialize", 1.3) },
	})
	db := fbdetect.NewDB(time.Minute)
	end := start.Add(9 * time.Hour)
	if err := svc.Run(db, nil, start, end); err != nil {
		b.Fatal(err)
	}
	cfg := fbdetect.Config{
		Threshold: 0.001,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := fbdetect.NewDetector(cfg, db, nil, fleet.SamplesOf(svc, 1e5))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := det.Scan("bench", end); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationSOMGrid(b *testing.B) {
	var purity float64
	for i := 0; i < b.N; i++ {
		purity = experiments.RunAblationSOMGrid(int64(i + 1)).Points[0].Purity
	}
	b.ReportMetric(purity, "heuristic-purity")
}

func BenchmarkAblationSAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunAblationSAX(int64(i + 1))
	}
}

func BenchmarkAblationSeasonality(b *testing.B) {
	var width float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationSeasonality(int64(i + 1))
		width = float64(r.Points[0].TransitionWidth)
	}
	b.ReportMetric(width, "stl-step-width")
}

func BenchmarkAblationWentAway(b *testing.B) {
	var kept float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationWentAway(int64(i + 1))
		kept = r.Points[2].TRKept
	}
	b.ReportMetric(kept, "shipped-TR-kept")
}

func BenchmarkAblationStageOrder(b *testing.B) {
	var calls float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationStageOrder(int64(i + 1))
		calls = float64(r.Points[0].CostShiftCalls)
	}
	b.ReportMetric(calls, "fast-first-costshift-calls")
}

// BenchmarkExpression1 validates the detection-threshold scaling law of
// paper Appendix A.2 (threshold ~ sqrt(sigma^2/n)).
func BenchmarkExpression1(b *testing.B) {
	var exponent float64
	for i := 0; i < b.N; i++ {
		exponent = experiments.RunExpression1(int64(i + 1)).FitExponent
	}
	b.ReportMetric(exponent, "fitted-exponent")
}

// BenchmarkLongTermPaths exercises the short-term vs long-term comparison
// of §5.3.
func BenchmarkLongTermPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunLongTerm(int64(i + 1))
		if len(r.Points) != 3 {
			b.Fatal("scenario count wrong")
		}
	}
}

// BenchmarkDetectionDelay measures timeliness vs re-run interval (the
// Table 1 interval-tuning trade-off).
func BenchmarkDetectionDelay(b *testing.B) {
	var delay float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunDetectionDelay(int64(i + 1))
		delay = r.Points[0].Delay.Minutes()
	}
	b.ReportMetric(delay, "delay-min@30m-rerun")
}

// BenchmarkScanManyMetrics measures one scan over a thousand metrics —
// the per-scan cost that, multiplied across 800k series, sizes the
// paper's "hundreds of servers" detection tier.
func BenchmarkScanManyMetrics(b *testing.B) {
	const nMetrics = 1000
	db := fbdetect.NewDB(time.Minute)
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	for m := 0; m < nMetrics; m++ {
		id := fbdetect.ID("big", fmt.Sprintf("sub_%04d", m), "gcpu")
		base := 0.001 * (1 + rng.Float64())
		for i := 0; i < 540; i++ {
			v := base + rng.NormFloat64()*base*0.02
			if err := db.Append(id, start.Add(time.Duration(i)*time.Minute), v); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg := fbdetect.Config{
		Threshold: 0.0001,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	end := start.Add(9 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := fbdetect.NewDetector(cfg, db, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := det.Scan("big", end); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nMetrics, "metrics-per-scan")
}

// BenchmarkScanThroughput measures repeated scans by one long-lived
// detector over an unchanged fleet at an unchanged scan time — the re-run
// cost the detector checkpoints remove. Contrast with BenchmarkPipeline
// and BenchmarkScanManyMetrics, which rebuild the detector every iteration
// and therefore always scan cold.
func BenchmarkScanThroughput(b *testing.B) {
	const nMetrics = 500
	db := fbdetect.NewDB(time.Minute)
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	for m := 0; m < nMetrics; m++ {
		id := fbdetect.ID("warm", fmt.Sprintf("sub_%04d", m), "gcpu")
		base := 0.001 * (1 + rng.Float64())
		amp := base * 0.1 * rng.Float64() // some metrics mildly seasonal
		for i := 0; i < 540; i++ {
			v := base + amp*math.Sin(2*math.Pi*float64(i)/120) + rng.NormFloat64()*base*0.02
			if err := db.Append(id, start.Add(time.Duration(i)*time.Minute), v); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg := fbdetect.Config{
		Threshold: 0.0001,
		LongTerm:  true, // every metric pays the decomposition path
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	det, err := fbdetect.NewDetector(cfg, db, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	end := start.Add(9 * time.Hour)
	if _, err := det.Scan("warm", end); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Scan("warm", end); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nMetrics, "metrics-per-scan")
}

// warmFleet seeds the 500-metric fleet BenchmarkScanThroughput and its
// no-checkpoint control share, and returns a detector over it.
func warmFleet(b *testing.B, cfg fbdetect.Config) (*fbdetect.Detector, time.Time) {
	b.Helper()
	const nMetrics = 500
	db := fbdetect.NewDB(time.Minute)
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	for m := 0; m < nMetrics; m++ {
		id := fbdetect.ID("warm", fmt.Sprintf("sub_%04d", m), "gcpu")
		base := 0.001 * (1 + rng.Float64())
		amp := base * 0.1 * rng.Float64() // some metrics mildly seasonal
		for i := 0; i < 540; i++ {
			v := base + amp*math.Sin(2*math.Pi*float64(i)/120) + rng.NormFloat64()*base*0.02
			if err := db.Append(id, start.Add(time.Duration(i)*time.Minute), v); err != nil {
				b.Fatal(err)
			}
		}
	}
	det, err := fbdetect.NewDetector(cfg, db, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return det, start.Add(9 * time.Hour)
}

// BenchmarkScanThroughputNoCheckpoint is the in-run control for the
// detector-checkpoint speedup gate: the same fleet, config, and warm
// schedule as BenchmarkScanThroughput, but with checkpointing disabled so
// every warm scan re-reads, re-detects and re-decomposes each series. The
// bench gate requires BenchmarkScanThroughput to beat this by at least 5x.
func BenchmarkScanThroughputNoCheckpoint(b *testing.B) {
	cfg := fbdetect.Config{
		Threshold: 0.0001,
		LongTerm:  true,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
		CheckpointCacheSize: -1,
	}
	det, end := warmFleet(b, cfg)
	if _, err := det.Scan("warm", end); err != nil { // same schedule as the gated benchmark
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Scan("warm", end); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmScanIncremental measures the continuous-scanning steady
// state: each iteration appends one new point per metric and re-scans one
// step later, so every window slides by a single point. Checkpoints miss
// by design (the window changed); the cost under measurement is the
// re-read plus full re-detection of every series.
func BenchmarkWarmScanIncremental(b *testing.B) {
	const nMetrics = 100
	db := fbdetect.NewDB(time.Minute)
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(11))
	ids := make([]fbdetect.MetricID, nMetrics)
	bases := make([]float64, nMetrics)
	amps := make([]float64, nMetrics)
	for m := 0; m < nMetrics; m++ {
		ids[m] = fbdetect.ID("warm", fmt.Sprintf("sub_%04d", m), "gcpu")
		bases[m] = 0.001 * (1 + rng.Float64())
		amps[m] = bases[m] * 0.1 * rng.Float64()
	}
	emit := func(m, i int) float64 {
		return bases[m] + amps[m]*math.Sin(2*math.Pi*float64(i)/120) + rng.NormFloat64()*bases[m]*0.02
	}
	for m := 0; m < nMetrics; m++ {
		for i := 0; i < 540; i++ {
			if err := db.Append(ids[m], start.Add(time.Duration(i)*time.Minute), emit(m, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg := fbdetect.Config{
		Threshold: 0.0001,
		LongTerm:  true,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
	det, err := fbdetect.NewDetector(cfg, db, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := det.Scan("warm", start.Add(9*time.Hour)); err != nil { // cold scan
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := 540 + i
		at := start.Add(time.Duration(step) * time.Minute)
		for m := 0; m < nMetrics; m++ {
			if err := db.Append(ids[m], at, emit(m, step)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := det.Scan("warm", at.Add(time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nMetrics, "metrics-per-scan")
}

// BenchmarkRCAAccuracy reproduces the §6.3 root-cause accuracy study.
func BenchmarkRCAAccuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunRCAAccuracy(int64(i + 1))
		if r.Suggested > 0 {
			acc = float64(r.Top3Correct) / float64(r.Suggested)
		}
	}
	b.ReportMetric(acc, "top3-accuracy")
}
