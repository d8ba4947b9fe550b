package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// These tests pin the two-phase scan: the change-point stage runs over a
// view of which only the analysis window has been decoded, and nothing
// downstream may read a point before it is materialised.

const lazyMetrics = 40

func lazyMetricID(m int) tsdb.MetricID {
	return tsdb.ID("lazy", "sub"+string(rune('a'+m%26))+string(rune('0'+m/26)), "gcpu")
}

// lazyValue is point i of metric m: a pure function of (m, i), so two
// stores fed step by step hold the same bytes. A third of the metrics are
// seasonal (re-flagged cycle after cycle and removed by the later
// filters), and metrics 7 and 23 step up for good at 490 and 430: the
// first step slides into the analysis window mid-sequence, the second is
// inside it throughout.
func lazyValue(m, i int) float64 {
	h := uint64(m+1)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	noise := float64(int64(h>>11)%2001-1000) / 1000 // uniform in [-1, 1]
	base := 0.001 * (1 + float64(m)*0.01)
	v := base + noise*base*0.02
	if m%3 == 0 {
		v += base * 0.2 * math.Sin(2*math.Pi*float64(i)/120)
	}
	if (m == 7 && i >= 490) || (m == 23 && i >= 430) {
		v += base * 0.5
	}
	return math.Round(v*1e7) / 1e7 // quantized, as fleet counters are
}

func lazyAppend(t *testing.T, db *tsdb.DB, from, to int) {
	t.Helper()
	for m := 0; m < lazyMetrics; m++ {
		for i := from; i < to; i++ {
			if err := db.Append(lazyMetricID(m), t0.Add(time.Duration(i)*time.Minute), lazyValue(m, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// slide runs a 40-cycle sliding sequence — one new point for every
// series, then a scan at the new end — over a fresh chunked store and
// returns every scan result, marshalled, plus the summed funnel.
func slide(t *testing.T, cfg Config, prepare func(*Pipeline)) ([]byte, Funnel) {
	t.Helper()
	db := tsdb.New(time.Minute)
	lazyAppend(t, db, 0, 540)
	p, err := NewPipeline(cfg, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prepare(p)
	var out bytes.Buffer
	var total Funnel
	for c := 1; c <= 40; c++ {
		lazyAppend(t, db, 539+c, 540+c)
		res, err := p.Scan("lazy", t0.Add(time.Duration(540+c)*time.Minute))
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err) // a NaN that reached a report lands here
		}
		out.Write(b)
		out.WriteByte('\n')
		total.Add(res.Funnel)
	}
	return out.Bytes(), total
}

// TestNoStageReadsAnUnmaterialisedPoint compares a pipeline whose pooled
// scratch is overwritten with NaN after every series — so whatever a view
// has not materialised is NaN, not the plausible leftovers of the previous
// series — against one that materialises every view whole before any
// stage runs. The marshalled reports must be byte-identical, with the
// long-term path (which needs the whole window of every series) off and
// on, and the points-materialised counter must show that the lazy side
// really was lazy.
func TestNoStageReadsAnUnmaterialisedPoint(t *testing.T) {
	for _, longTerm := range []bool{false, true} {
		cfg := incrementalConfig()
		cfg.LongTerm = longTerm
		name := "short-term only"
		if longTerm {
			name = "with long-term"
		}
		t.Run(name, func(t *testing.T) {
			eager, _ := slide(t, cfg, func(p *Pipeline) {
				p.viewOpened = func(v tsdb.View) {
					if err := v.Materialize(0, v.N); err != nil {
						t.Error(err)
					}
				}
			})
			reg := obs.NewRegistry()
			lazy, funnel := slide(t, cfg, func(p *Pipeline) {
				p.Instrument(reg, nil)
				p.viewReleased = func(buf []float64) {
					for i := range buf {
						buf[i] = math.NaN()
					}
				}
			})
			if !bytes.Equal(lazy, eager) {
				t.Fatalf("reports differ between the lazy and the eager pipeline:\nlazy  %s\neager %s",
					firstDiffLine(lazy, eager), firstDiffLine(eager, lazy))
			}
			if funnel.ChangePoints == 0 || funnel.AfterPairwise == 0 {
				t.Fatalf("nothing detected, the comparison is vacuous: %+v", funnel)
			}
			scans := 40 * lazyMetrics
			if funnel.ChangePoints >= scans/2 {
				t.Fatalf("%d change points over %d series scans: no lazy path left to test", funnel.ChangePoints, scans)
			}
			// 180 analysis points per series scanned, the other 360 behind
			// a change point — or behind every series when long-term is on.
			want := 180*scans + 360*funnel.ChangePoints
			if longTerm {
				want = 540 * scans
			}
			if got := counterValue(reg, MetricViewPoints, nil); got != float64(want) {
				t.Errorf("%s = %v, want %d", MetricViewPoints, got, want)
			}
		})
	}
}

// firstDiffLine returns a's first line that differs from b's.
func firstDiffLine(a, b []byte) []byte {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return la[i]
		}
	}
	return nil
}

// A series with no change point is what a sweep is made of, so its scan
// must stay off the allocator: the view's series header and the block of
// four window headers are the whole steady-state bill, with room for two
// more. Instrumentation must not add to it.
func TestQuietSeriesScanAllocations(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		db := tsdb.New(time.Minute)
		lazyAppend(t, db, 0, 541)
		cfg := incrementalConfig() // the 5 h / 3 h / 1 h windows the binaries ship
		cfg.LongTerm = false
		p, err := NewPipeline(cfg, db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if instrumented {
			p.Instrument(obs.NewRegistry(), obs.NewTracer(4))
		}
		// Alternate between two scan times, so every lookup misses the
		// checkpoint left by the previous one and the full path runs.
		id := lazyMetricID(1)
		ends := [2]time.Time{t0.Add(540 * time.Minute), t0.Add(541 * time.Minute)}
		sc := p.getScratch()
		k := 0
		scan := func() {
			at := ends[k%2]
			k++
			if m := p.scanMetric(id, at.Add(-p.cfg.Windows.Total()), at, sc); m.funnel.ChangePoints != 0 {
				t.Fatalf("metric 1 has a change point at %v", at)
			}
		}
		scan() // size the scratch
		scan()
		if got := testing.AllocsPerRun(200, scan); got > 4 {
			t.Errorf("instrumented=%v: %v allocations per quiet series scan, want <= 4", instrumented, got)
		}
		if hits, _, _ := p.CheckpointStats(); hits != 0 {
			t.Errorf("instrumented=%v: %d checkpoint hits, the scans were not the full path", instrumented, hits)
		}
	}
}
