package core

import (
	"testing"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// benchScanFixture builds one simulated service worth of data shared by
// both benchmark arms; the per-iteration pipeline rebuild is negligible
// next to the scan itself.
func benchScanFixture(b *testing.B) (*tsdb.DB, *changelog.Log, fleet.Samples, time.Time) {
	b.Helper()
	tree := pipelineTree(b)
	svc := pipelineService(b, tree, 7)
	db := tsdb.New(time.Minute)
	var log changelog.Log
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     t0.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("decode", 1.2) },
		Record: &changelog.Change{ID: "D100", Subroutines: []string{"decode"}},
	})
	end := t0.Add(9 * time.Hour)
	if err := svc.Run(db, &log, t0, end); err != nil {
		b.Fatal(err)
	}
	return db, &log, fleet.SamplesOf(svc, 1e6), end
}

// BenchmarkObsOverhead compares a full pipeline scan with and without the
// obs instrumentation attached — the same discipline the paper applies to
// its own profilers (§6.6: overhead must stay negligible). Run with
//
//	go test -run - -bench BenchmarkObsOverhead ./internal/core/
//
// and compare the two arms; the instrumented arm should stay within ~5%
// of the uninstrumented one.
func BenchmarkObsOverhead(b *testing.B) {
	db, log, samples, end := benchScanFixture(b)
	scan := func(b *testing.B, reg *obs.Registry, tracer *obs.Tracer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := NewPipeline(pipelineConfig(), db, log, samples)
			if err != nil {
				b.Fatal(err)
			}
			p.Instrument(reg, tracer)
			if _, err := p.Scan("websvc", end); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) {
		scan(b, nil, nil)
	})
	b.Run("instrumented", func(b *testing.B) {
		scan(b, obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCapacity))
	})
}
