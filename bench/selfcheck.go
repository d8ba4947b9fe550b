package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// selfcheck answers one question: do two sets of runs of the same code
// agree within the benchmark's own bounds? Sets A and B are interleaved
// (A B A B ...), each pass running every workload once, so that a slow
// minute of the host lands on both. Pass i of either set uses seed+i, as a
// pipeline comparing two commits would. A set's figure for a metric is the
// median over its passes.
func (b *bencher) selfcheck() int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*b.opt.runs; i++ {
		set, seed := i%2, b.opt.seed+int64(i/2)
		for _, w := range workloads {
			r := b.runOne(w, seed, false)
			fmt.Printf("set %c pass %d %-14s seed %d  correct=%v\n", 'A'+set, i/2+1, w.name, seed, r.correct())
			for name, v := range r.values {
				sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], v)
			}
		}
	}

	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		MedianA  float64 `json:"median_a"`
		MedianB  float64 `json:"median_b"`
		Diff     float64 `json:"diff"` // |B-A| / A
		Bound    float64 `json:"bound"`
		SpreadA  float64 `json:"spread_a"` // (max-min) / median
		SpreadB  float64 `json:"spread_b"`
		Breach   bool    `json:"breach"`
	}
	spread := func(xs []float64) float64 {
		return ratio(quantile(xs, 1)-quantile(xs, 0), median(xs))
	}
	var rows []row
	breaches := 0
	fmt.Printf("\n%-14s %-30s %12s %12s %8s %8s %9s %9s\n", "workload", "metric", "median A", "median B", "diff", "bound", "spread A", "spread B")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, bb := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			r := row{Workload: w.name, Metric: d.name, MedianA: median(a), MedianB: median(bb),
				Bound: d.bound, SpreadA: spread(a), SpreadB: spread(bb)}
			r.Diff = ratio(math.Abs(r.MedianB-r.MedianA), r.MedianA)
			r.Breach = r.Diff > r.Bound
			mark := ""
			if r.Breach {
				breaches++
				mark = "  BREACH"
			}
			fmt.Printf("%-14s %-30s %12.6g %12.6g %7.2f%% %7.2f%% %8.2f%% %8.2f%%%s\n", w.name, d.name,
				r.MedianA, r.MedianB, 100*r.Diff, 100*r.Bound, 100*r.SpreadA, 100*r.SpreadB, mark)
			rows = append(rows, r)
		}
		// Whether the run can be trusted: a busy generator, a growing
		// backlog or a stolen CPU explain a disagreement better than the SUT.
		for _, name := range []string{"loadgen.cpu_share", "loadgen.backlog_growth_ms", "host.steal_share"} {
			fmt.Printf("%-14s %-30s %12.6g %12.6g\n", w.name, name,
				median(sets[0][key{w.name, name}]), median(sets[1][key{w.name, name}]))
		}
	}
	data, err := json.MarshalIndent(map[string]any{"runs_per_set": b.opt.runs, "seed": b.opt.seed, "rows": rows}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(b.outDir, "selfcheck.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if breaches > 0 {
		fmt.Printf("\nselfcheck: %d metric(s) disagree by more than their bound\n", breaches)
		return 1
	}
	fmt.Println("\nselfcheck: sets A and B agree within every bound")
	return 0
}
