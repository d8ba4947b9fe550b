// Command fleetsim generates synthetic fleet telemetry — the same data the
// FBDetect pipeline consumes — and writes it as CSV to stdout, one row per
// (time, metric, value). Useful for feeding external tooling or inspecting
// what the simulator produces.
//
// With -stream it instead pushes the telemetry to a worker's POST /ingest
// endpoint as per-time-step NDJSON batches, retrying each batch until the
// worker acknowledges it — the client half of the durable ingestion path:
//
//	fbdetect-worker -listen :8080 -data-dir /tmp/d &
//	fleetsim -hours 9 -stream http://localhost:8080
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"fbdetect"
	"fbdetect/internal/distributed"
	"fbdetect/internal/fleet"
	"fbdetect/internal/obs"
	"fbdetect/internal/resilience"
	"fbdetect/internal/tsdb"
)

func main() {
	var (
		subroutines = flag.Int("subroutines", 50, "call-tree size")
		servers     = flag.Int("servers", 1000, "fleet size")
		hours       = flag.Int("hours", 4, "simulated duration in hours")
		stepMin     = flag.Int("step", 1, "emission step in minutes")
		seed        = flag.Int64("seed", 1, "simulation seed")
		regress     = flag.Float64("regress", 0, "if nonzero, scale a random subroutine's cost by this factor mid-run")
		spike       = flag.Bool("spike", false, "inject a transient load spike mid-run")
		stream      = flag.String("stream", "", "stream to these worker base URLs' /ingest endpoints (comma-separated) as NDJSON batches instead of printing CSV; one generation feeds every worker identically")
		streamSteps = flag.Int("stream-steps", 15, "time steps per streamed batch")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("fleetsim"))
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	tree := fleet.Generate(rng, *subroutines, 4)
	step := time.Duration(*stepMin) * time.Minute
	svc, err := fleet.NewService(fleet.Config{
		Name:           "fleetsim",
		Servers:        *servers,
		Step:           step,
		SamplesPerStep: float64(*servers) * 10 * float64(*stepMin),
		BaseCPU:        0.5,
		CPUNoise:       0.08,
		SeasonalAmp:    0.05,
		SeasonalPeriod: 24 * time.Hour,
		BaseThroughput: float64(*servers) * 20,
		BaseLatency:    25,
		LatencyNoise:   0.5,
		BaseErrorRate:  0.001,
		ErrorNoise:     0.0002,
		Tree:           tree,
		Seed:           *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(*hours) * time.Hour)
	mid := start.Add(time.Duration(*hours) * time.Hour / 2)
	if *regress != 0 {
		subs := tree.Subroutines()
		victim := subs[rng.Intn(len(subs))]
		// Inject at 70% of the run so the change lands inside the
		// analysis window of a scan at the end (60/30/10 split).
		at := start.Add(time.Duration(*hours) * time.Hour * 7 / 10)
		fmt.Fprintf(os.Stderr, "injecting %gx regression on %s at %s\n", *regress, victim, at)
		svc.ScheduleChange(fleet.ScheduledChange{
			At: at,
			Effect: func(tr *fleet.Tree) error {
				return tr.ScaleSelfWeight(victim, *regress)
			},
		})
	}
	if *spike {
		svc.ScheduleIssue(fleet.DefaultIssue(fleet.LoadSpike, mid, 30*time.Minute))
	}

	db := fbdetect.NewDB(step)
	if err := svc.Run(db, nil, start, end); err != nil {
		log.Fatal(err)
	}

	if *stream != "" {
		if err := streamTo(*stream, db, *streamSteps); err != nil {
			log.Fatal(err)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "time,metric,value")
	for _, id := range db.Metrics("fleetsim") {
		s, err := db.Full(id)
		if err != nil {
			log.Fatal(err)
		}
		for i, v := range s.Values {
			fmt.Fprintf(w, "%s,%s,%.9g\n", s.TimeAt(i).Format(time.RFC3339), id, v)
		}
	}
}

// streamTo pushes db's contents to one or more workers' /ingest endpoints
// (comma-separated base URLs) in time-order, batching stepsPerBatch time
// steps of every metric into one NDJSON POST. Each batch is retried (with
// generous budget, honoring the workers' Retry-After hints) until every
// worker acknowledged it — so a worker restart mid-stream only delays the
// stream. Workers append idempotently, so a batch whose ack was lost to a
// crash is safely re-sent. Streaming one generation to several workers
// guarantees they see byte-identical telemetry: the simulator itself is
// not bit-deterministic across process runs.
func streamTo(baseURLs string, db *fbdetect.DB, stepsPerBatch int) error {
	if stepsPerBatch < 1 {
		stepsPerBatch = 1
	}
	ids := db.Metrics("fleetsim")
	if len(ids) == 0 {
		return fmt.Errorf("nothing to stream")
	}
	type column struct {
		id fbdetect.MetricID
		s  *fbdetect.Series
	}
	cols := make([]column, 0, len(ids))
	steps := 0
	for _, id := range ids {
		s, err := db.Full(id)
		if err != nil {
			return err
		}
		cols = append(cols, column{id, s})
		if s.Len() > steps {
			steps = s.Len()
		}
	}
	// A worker restart takes seconds; the budget rides through it.
	policy := resilience.Policy{MaxAttempts: 120,
		BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}
	urls := strings.Split(baseURLs, ",")
	clients := make([]*distributed.IngestClient, len(urls))
	for i, u := range urls {
		clients[i] = distributed.NewIngestClient(strings.TrimSpace(u), nil, policy, nil, 1)
	}
	sent := make([]int, len(urls))
	skipped := make([]int, len(urls))
	batches := 0
	for lo := 0; lo < steps; lo += stepsPerBatch {
		hi := lo + stepsPerBatch
		if hi > steps {
			hi = steps
		}
		var pts []tsdb.Point
		for _, c := range cols {
			for i := lo; i < hi && i < c.s.Len(); i++ {
				pts = append(pts, tsdb.Point{ID: c.id, T: c.s.TimeAt(i), V: c.s.Values[i]})
			}
		}
		for i, cl := range clients {
			res, err := cl.Send(context.Background(), pts)
			if err != nil {
				return fmt.Errorf("batch at step %d not acknowledged by %s: %w", lo, urls[i], err)
			}
			sent[i] += res.Appended
			skipped[i] += res.Skipped
		}
		batches++
	}
	for i, u := range urls {
		fmt.Fprintf(os.Stderr, "streamed %d batches to %s: %d points appended, %d already present\n",
			batches, u, sent[i], skipped[i])
	}
	return nil
}
