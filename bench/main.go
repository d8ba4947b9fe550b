// Command bench is the repository's end-to-end benchmark: one load
// generator that spawns the shipped binaries on loopback, drives four
// named workloads through /ingest, /profiles, /scan and /operations one
// phase at a time, checks the verdicts, and prints every metric by name
// and unit. README.md in this directory is the manual.
//
//	bash bench/run.sh                       # all four workloads
//	bash bench/run.sh --workload live_slide --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh -selfcheck            # do two sets of runs agree?
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the -seconds at which the
// workloads run at their committed sizes. Other values scale them.
const runSeconds = 12

func nproc() int { return runtime.NumCPU() }

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	timeout     time.Duration
	writeGolden bool
	selfcheck   bool
	runs        int
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run one workload and end with the one-line JSON result (default: all four, tables only)")
	flag.Int64Var(&opt.seed, "seed", 1, "the only source of randomness for the inputs")
	flag.IntVar(&opt.seconds, "seconds", runSeconds, "size of the run; the committed sizes are those of the default")
	flag.IntVar(&opt.trace, "trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	flag.DurationVar(&opt.timeout, "timeout", 150*time.Second, "per-workload limit")
	flag.BoolVar(&opt.writeGolden, "write-golden", false, "write golden/<workload>.seed<seed>.json from the in-process reference and exit")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run every workload 2 x -runs times as interleaved sets A and B and compare their medians")
	flag.IntVar(&opt.runs, "runs", 3, "runs per set for -selfcheck")
	flag.Parse()
	if flag.NArg() > 0 || opt.seconds < 1 || opt.trace < 0 || opt.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}

	// Children die with us on every path: normal return, error exit, signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		children.killAll()
		os.Exit(130)
	}()
	code := run(opt)
	children.killAll()
	os.Exit(code)
}

// dirs locates the repository root and this directory from the working
// directory: the benchmark is started from either.
func dirs() (root, benchDir string, err error) {
	for _, c := range [][2]string{{".", "bench"}, {"..", "."}} {
		if _, err := os.Stat(filepath.Join(c[0], "cmd", binWorker)); err == nil {
			if _, err := os.Stat(filepath.Join(c[1], "workloads.go")); err == nil {
				return c[0], c[1], nil
			}
		}
	}
	return "", "", fmt.Errorf("bench: run from the repository root or from bench/ (cmd/%s not found)", binWorker)
}

func run(opt options) int {
	root, benchDir, err := dirs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	selected := workloads
	if opt.workload != "" {
		w := findWorkload(opt.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
			return 2
		}
		selected = []workload{*w}
	}
	if opt.writeGolden {
		for _, w := range selected {
			if !hasGolden(w) {
				continue
			}
			if err := writeGolden(benchDir, w, opt.seed); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println("wrote", goldenPath(benchDir, w.name, opt.seed))
		}
		return 0
	}

	outDir := filepath.Join(benchDir, "out")
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	versions, buildS, err := buildSUT(root, binDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("# fbdetect bench  nproc=%d  go=%s  kernel=%s  seed=%d  seconds=%d\n",
		nproc(), runtime.Version(), strings.TrimSpace(string(kernel)), opt.seed, opt.seconds)
	fmt.Printf("# SUT: %s; %s\n", versions[binWorker], versions[binServer])

	b := &bencher{opt: opt, benchDir: benchDir, outDir: outDir, binDir: binDir, buildS: buildS}
	if opt.selfcheck {
		return b.selfcheck()
	}
	code := 0
	var last *runResult
	for _, w := range selected {
		last = b.runOne(w, opt.seed, opt.trace == 1)
		printResult(last)
		if !last.correct() {
			code = 1
		}
	}
	if opt.workload != "" {
		fmt.Println(string(contractLine(last, opt.trace == 1)))
	}
	return code
}

// bencher carries what every run of this invocation shares.
type bencher struct {
	opt      options
	benchDir string
	outDir   string
	binDir   string
	buildS   float64
}

// runOne runs one workload under its timeout, untraced first; with trace
// the in-process replay follows and adds the T metrics.
func (b *bencher) runOne(w workload, seed int64, trace bool) *runResult {
	scale := float64(b.opt.seconds) / runSeconds
	ctx, cancel := context.WithTimeout(context.Background(), b.opt.timeout)
	defer cancel()
	sw := w.scaled(scale)
	res := runWorkload(ctx, runConfig{
		w: sw, seed: seed, atScale1: scale == 1,
		benchDir: b.benchDir, outDir: b.outDir,
		newSUT: func(w workload, dataDir, logPath string) sut {
			return newProcSUT(w, b.binDir, dataDir, logPath)
		},
	})
	res.values["bench.build_s"] = b.buildS
	if trace && ctx.Err() == nil {
		if err := tracedRun(sw, seed, res, b.outDir); err != nil {
			res.errs = append(res.errs, "traced run: "+err.Error())
			res.failed++
			res.attempted++
		}
	}
	return res
}

// correct is the run's verdict on itself: nothing failed and the SUT
// reported exactly the expected regressions.
func (r *runResult) correct() bool {
	return r.failed == 0 && r.values["verdicts_correct_share"] == 1
}

func printResult(r *runResult) {
	fmt.Printf("\n## %s (seed %d)\n", r.workload, r.seed)
	row := func(d metricDef) {
		v, ok := r.values[d.name]
		if !ok {
			return
		}
		n := ""
		if c := r.samples[d.name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-46s %16.6g %-6s%s\n", d.name, v, d.unit, n)
	}
	for _, d := range endToEnd {
		row(d)
	}
	fmt.Println("--")
	for _, d := range perLayer {
		row(d)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, e := range r.errs {
		fmt.Println("FAILED:", e)
	}
	fmt.Printf("ops: %d attempted, %d failed; correct=%v\n", r.attempted, r.failed, r.correct())
}

// contractLine is the single JSON object the driver reads from the end of
// the output: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
func contractLine(r *runResult, trace bool) []byte {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.name] = mv{Value: r.values[d.name], Unit: d.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": max(1, r.attempted), "failed": r.failed, "metrics": metrics,
	})
	return line
}
