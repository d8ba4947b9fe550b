// Command fbdetect runs the FBDetect pipeline against a simulated service
// fleet and prints the regression report, demonstrating the system
// end-to-end from one binary.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"fbdetect"
	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/fleet"
	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/report"
	"fbdetect/internal/resilience"
	"fbdetect/internal/stacktrace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "profdiff" {
		runProfDiff(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ci" {
		runCI(os.Args[2:])
		return
	}
	var (
		subroutines = flag.Int("subroutines", 300, "call-tree size")
		servers     = flag.Int("servers", 10000, "fleet size")
		hours       = flag.Int("hours", 9, "simulated duration in hours")
		regress     = flag.Float64("regress", 1.1, "cost factor applied to the victim subroutine (1 = no regression)")
		costshift   = flag.Bool("costshift", false, "also inject a cost-shift refactoring")
		transient   = flag.Bool("transient", false, "also inject a transient load spike")
		threshold   = flag.Float64("threshold", 0.0005, "absolute detection threshold")
		seed        = flag.Int64("seed", 1, "simulation seed")
		watch       = flag.Bool("watch", false, "scan repeatedly over the simulated timeline (monitor mode) instead of once at the end")
		watchEvery  = flag.Duration("watch-interval", time.Hour, "re-run interval in watch mode")
		input       = flag.String("input", "", "scan a time,metric,value CSV file instead of simulating")
		inputStep   = flag.Duration("input-step", time.Minute, "sample step of the CSV data")
		service     = flag.String("service", "", "service to scan in -input mode (default: first service found)")
		configPath  = flag.String("config", "", "JSON detection-job config (see fbdetect.ParseConfig); required windows")
		telemetry   = flag.Bool("telemetry", false, "print the scan's stage-latency and funnel table")
		version     = flag.Bool("version", false, "print version and exit")

		// Coordinator mode: fan a sweep out over fbdetect-worker processes
		// through the resilience layer instead of scanning locally.
		workers        = flag.String("workers", "", "comma-separated worker base URLs; runs a distributed sweep instead of a local scan")
		services       = flag.String("services", "fleetsim", "comma-separated services to sweep in -workers mode")
		scanTimeFlag   = flag.String("scan-time", "", "RFC3339 scan time in -workers mode (default: simulated start + -hours)")
		retryAttempts  = flag.Int("retry-attempts", 3, "per-worker scan attempts in -workers mode")
		retryBase      = flag.Duration("retry-base", 50*time.Millisecond, "base retry backoff in -workers mode")
		hedgeDelay     = flag.Duration("hedge-delay", 0, "duplicate a scan request not answered within this delay (0 = off)")
		breakerTrip    = flag.Int("breaker-threshold", 5, "consecutive failures that trip a worker's circuit breaker")
		breakerCool    = flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker stays open")
		requestTimeout = flag.Duration("request-timeout", 60*time.Second, "per-attempt scan request deadline")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("fbdetect"))
		return
	}

	if *workers != "" {
		runCoordinator(*workers, *services, *scanTimeFlag, *hours, distributed.Options{
			Retry: resilience.Policy{
				MaxAttempts: *retryAttempts, BaseDelay: *retryBase,
			},
			HedgeDelay:     *hedgeDelay,
			RequestTimeout: *requestTimeout,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: *breakerTrip, Cooldown: *breakerCool,
			},
		})
		return
	}
	if *input != "" {
		runCSV(*input, *inputStep, *service, *configPath, *threshold)
		return
	}
	if *hours < 9 {
		fmt.Fprintln(os.Stderr, "need at least 9 hours for the default windows")
		os.Exit(2)
	}

	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(*hours) * time.Hour)
	rng := rand.New(rand.NewSource(*seed))

	tree := fleet.Generate(rng, *subroutines, 4)
	root := tree.Root.Name
	check(tree.AddSubroutine(root, "victim_subroutine", "", 30))
	check(tree.AddSubroutine(root, "Pair::left", "Pair", 20))
	check(tree.AddSubroutine(root, "Pair::right", "Pair", 20))

	// Emit the interesting subroutines plus a slice of the generated tree.
	emit := []string{"victim_subroutine", "Pair::left", "Pair::right"}
	all := tree.Subroutines()
	for i := 0; i < len(all) && len(emit) < 60; i += 1 + len(all)/60 {
		emit = append(emit, all[i])
	}

	svc, err := fleet.NewService(fleet.Config{
		Name:            "simsvc",
		Servers:         *servers,
		Step:            time.Minute,
		SamplesPerStep:  float64(*servers) * 10,
		BaseCPU:         0.5,
		CPUNoise:        0.08,
		SeasonalAmp:     0.04,
		SeasonalPeriod:  24 * time.Hour,
		BaseThroughput:  float64(*servers) * 20,
		Tree:            tree,
		Seed:            *seed,
		EmitSubroutines: emit,
	})
	check(err)

	var changes fbdetect.ChangeLog
	changeAt := start.Add(time.Duration(*hours-2) * time.Hour)
	if *regress != 1 {
		svc.ScheduleChange(fleet.ScheduledChange{
			At: changeAt,
			Effect: func(tr *fleet.Tree) error {
				return tr.ScaleSelfWeight("victim_subroutine", *regress)
			},
			Record: &fbdetect.Change{
				ID:          "D-regression",
				Title:       "optimize victim_subroutine hot loop",
				Subroutines: []string{"victim_subroutine"},
			},
		})
	}
	if *costshift {
		svc.ScheduleChange(fleet.ScheduledChange{
			At: changeAt,
			Effect: func(tr *fleet.Tree) error {
				return tr.ShiftWeight("Pair::left", "Pair::right", 10)
			},
			Record: &fbdetect.Change{
				ID:          "D-refactor",
				Title:       "move work from left to right",
				Subroutines: []string{"Pair::left", "Pair::right"},
			},
		})
	}
	if *transient {
		svc.ScheduleIssue(fleet.DefaultIssue(fleet.LoadSpike,
			start.Add(time.Duration(*hours-3)*time.Hour), 30*time.Minute))
	}

	db := fbdetect.NewDB(time.Minute)
	fmt.Printf("simulating %dh of %q on %d servers (%d subroutines)...\n",
		*hours, "simsvc", *servers, len(tree.Subroutines()))
	check(svc.Run(db, &changes, start, end))

	det, err := fbdetect.NewDetector(fbdetect.Config{
		Threshold: *threshold,
		Windows: fbdetect.WindowConfig{
			Historic: time.Duration(*hours-4) * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
		LongTerm: true,
	}, db, &changes, fleet.SamplesOf(svc, 1e6))
	check(err)

	var reg *obs.Registry
	if *telemetry {
		reg = obs.NewRegistry()
		det.Instrument(reg, nil)
	}

	if *watch {
		mon, err := fbdetect.NewMonitor(det, *watchEvery)
		check(err)
		mon.Watch("simsvc")
		mon.OnReport(func(r *fbdetect.Regression) {
			fmt.Printf("[monitor] %s\n", r)
		})
		// The earliest scan with full windows is at `end`; sweep the last
		// two intervals so the monitor demonstrates overlap handling.
		check(mon.RunVirtual(end.Add(-*watchEvery), end))
		funnel, scans := mon.Stats()
		fmt.Printf("\nmonitor: %d scans, %d change points, %d reported, %d population shifts\n",
			scans, funnel.ChangePoints, len(mon.Reports()), len(mon.PopulationShifts()))
		printTelemetry(reg)
		return
	}

	res, err := det.Scan("simsvc", end)
	check(err)
	printTelemetry(reg)

	fmt.Printf("\n%d regression(s) reported:\n\n", len(res.Reported))
	check(fbdetect.WriteScanReport(os.Stdout, res, &changes))
}

// runCoordinator sweeps services across remote fbdetect-worker processes
// with retries, breaker-gated failover, and optional hedging, then
// prints the merged report. Partial failures do not abort the sweep;
// services that stayed failed after every avenue are listed.
func runCoordinator(workerList, serviceList, scanTimeStr string, hours int, opts distributed.Options) {
	urls := splitNonEmpty(workerList)
	services := splitNonEmpty(serviceList)
	if len(urls) == 0 || len(services) == 0 {
		fmt.Fprintln(os.Stderr, "-workers mode needs at least one worker URL and one service")
		os.Exit(2)
	}
	scanTime := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(hours) * time.Hour)
	if scanTimeStr != "" {
		var err error
		scanTime, err = time.Parse(time.RFC3339, scanTimeStr)
		check(err)
	}

	coord, err := distributed.NewCoordinatorWithOptions(urls, nil, opts)
	check(err)
	fmt.Printf("sweeping %d service(s) over %d worker(s) at %s ...\n",
		len(services), len(urls), scanTime.Format(time.RFC3339))
	merged, err := coord.ScanAll(services, scanTime)

	fmt.Printf("\nscanned %d/%d service(s)", len(merged.Scanned), len(services))
	if len(merged.Failed) > 0 {
		fmt.Printf("; FAILED: %s", strings.Join(merged.Failed, ", "))
	}
	fmt.Println()
	check(report.WriteFunnel(os.Stdout, merged.Funnel))
	fmt.Printf("\n%d regression(s) reported:\n\n", len(merged.Reported))
	for _, r := range merged.Reported {
		fmt.Printf("  [%s] %s %s (%s): %+.4f (%+.1f%%) at %s\n",
			r.Service, r.Metric, r.Entity, r.Path,
			r.Delta, 100*r.Relative, r.ChangePointTime.Format(time.RFC3339))
		for _, rc := range r.RootCauses {
			fmt.Printf("      cause? %s (score %.2f)\n", rc.ChangeID, rc.Score)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "\nsweep errors:\n%v\n", err)
		os.Exit(1)
	}
}

// runProfDiff implements `fbdetect profdiff before after`: compare two
// CPU profiles (gzipped pprof protobuf from runtime/pprof, or folded
// stacks — formats may be mixed) and print the subroutines whose self
// gCPU moved, worst regression first. The offline companion to the
// monitor: same subroutine-level view, but from exactly two captures.
func runProfDiff(args []string) {
	fs := flag.NewFlagSet("profdiff", flag.ExitOnError)
	minDelta := fs.Float64("min-delta", 0.0001, "smallest |self gCPU delta| to report (fraction of samples)")
	topN := fs.Int("top", 20, "entries listed per direction (negative = unlimited)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fbdetect profdiff [flags] before.pb.gz after.pb.gz")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	load := func(path string) *fbdetect.SampleSet {
		data, err := os.ReadFile(path)
		check(err)
		ss, format, err := pprofparse.ReadAny(data, "", pprofparse.ConvertOptions{},
			stacktrace.FoldedOptions{})
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		fmt.Printf("%s: %s, %.6g samples, %d subroutines\n",
			path, format, ss.Total(), len(ss.Subroutines()))
		return ss
	}
	before, after := load(fs.Arg(0)), load(fs.Arg(1))
	fmt.Println()
	d := report.DiffProfiles(before, after, report.DiffOptions{
		MinDelta: *minDelta, TopN: *topN,
	})
	check(report.WriteProfileDiff(os.Stdout, d))
}

// splitNonEmpty splits a comma list, dropping empty elements.
func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runCSV scans user-provided telemetry: ingest the CSV, derive or load a
// config, and scan at the data's end.
func runCSV(path string, step time.Duration, service, configPath string, threshold float64) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	db, err := fbdetect.ReadCSV(f, step)
	check(err)

	metrics := db.Metrics(service)
	if len(metrics) == 0 {
		metrics = db.Metrics("")
	}
	if len(metrics) == 0 {
		log.Fatal("no metrics in input")
	}
	if service == "" {
		service, _, _ = metrics[0].Parts()
	}
	// Find the common data extent for the scan time.
	var end time.Time
	var span time.Duration
	for _, id := range db.Metrics(service) {
		s, err := db.Full(id)
		check(err)
		if end.IsZero() || s.End().Before(end) {
			end = s.End()
		}
		if d := s.End().Sub(s.Start); span == 0 || d < span {
			span = d
		}
	}

	var cfg fbdetect.Config
	if configPath != "" {
		cfg, err = fbdetect.LoadConfig(configPath)
		check(err)
	} else {
		// Derive windows from the data extent: 60% historic, 30%
		// analysis, 10% extended.
		cfg = fbdetect.Config{
			Threshold: threshold,
			Windows: fbdetect.WindowConfig{
				Historic: span * 6 / 10,
				Analysis: span * 3 / 10,
				Extended: span / 10,
			},
			LongTerm: true,
		}
	}
	det, err := fbdetect.NewDetector(cfg, db, nil, nil)
	check(err)
	res, err := det.Scan(service, end)
	check(err)
	fmt.Printf("scanned %q (%d metrics) at %s\n\n", service,
		len(db.Metrics(service)), end.Format(time.RFC3339))
	check(fbdetect.WriteScanReport(os.Stdout, res, nil))
}

// printTelemetry renders the per-stage funnel and latency table the
// -telemetry flag asks for. reg is nil when the flag is off.
func printTelemetry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	rows := core.StageTelemetry(reg)
	if len(rows) == 0 {
		return
	}
	fmt.Printf("\n%-12s %8s %8s %8s %10s %10s %10s\n",
		"stage", "in", "out", "calls", "p50", "p95", "total")
	for _, r := range rows {
		fmt.Printf("%-12s %8.0f %8.0f %8d %10s %10s %10s\n",
			r.Stage, r.In, r.Out, r.Calls,
			fmtSecs(r.P50), fmtSecs(r.P95), fmtSecs(r.TotalSecs))
	}
}

// fmtSecs renders a seconds value as a compact duration.
func fmtSecs(s float64) string {
	if s != s { // NaN: no observations
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
