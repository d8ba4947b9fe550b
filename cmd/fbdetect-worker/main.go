// Command fbdetect-worker runs one detection scan worker over a simulated
// service, exposing POST /scan for a coordinator — the sharded deployment
// shape production FBDetect uses (paper §5.1). Point a coordinator (or
// curl) at it:
//
//	fbdetect-worker -listen :8080 -service websvc &
//	curl -X POST localhost:8080/scan \
//	  -d '{"service":"websvc","scan_time":"2024-08-01T09:00:00Z"}'
//
// With -data-dir the worker runs in durable mode: instead of simulating a
// service at startup, it recovers a WAL+snapshot store from the directory,
// serves POST /ingest for streaming NDJSON point batches (fleetsim
// -stream produces them) and POST /profiles for raw CPU profiles
// (gzipped pprof protobuf or folded stacks, folded into per-subroutine
// gCPU series), and scans whatever series have been ingested. Kill -9 it
// mid-ingest and restart: acknowledged batches survive.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/fleet"
	"fbdetect/internal/obs"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "listen address")
		metricsListen = flag.String("metrics-listen", "", "extra listen address serving only /metrics, /healthz and /debug/pprof (default: those routes share -listen)")
		traceBuf      = flag.Int("trace-buffer", 64, "scan traces retained for /debug/traces")
		service       = flag.String("service", "websvc", "simulated service name")
		hours         = flag.Int("hours", 9, "hours of simulated history")
		regress       = flag.Float64("regress", 1.15, "regression factor injected 2h before the data ends")
		seed          = flag.Int64("seed", 1, "simulation seed")
		failFirst     = flag.Int("fail-first", 0, "chaos: answer this many initial /scan requests with 500, to demo coordinator retry and failover")
		dataDir       = flag.String("data-dir", "", "durable mode: recover a WAL+snapshot store from this directory, serve POST /ingest, and scan ingested series (disables the built-in simulation)")
		walSync       = flag.String("wal-sync", "batch", "durable mode WAL sync policy: always, batch, or never")
		snapshotEvery = flag.Duration("snapshot-every", 0, "durable mode: snapshot the store and compact the WAL at this interval (0 = only on shutdown)")
		profileTopK   = flag.Int("profile-top-k", 0, "durable mode: cap on subroutines tracked per uploaded profile via POST /profiles (0 = default 200)")
		fsyncDelay    = flag.Duration("fsync-delay", 0, "fault injection: artificial delay added to every WAL fsync, widening the crash window for recovery tests")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("fbdetect-worker"))
		return
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*traceBuf)
	obs.RegisterBuildInfo(reg, "fbdetect-worker")

	var (
		db      *tsdb.DB
		store   *wal.Store
		samples core.SampleProvider
	)
	if *dataDir != "" {
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		store, err = wal.OpenStore(*dataDir, time.Minute,
			wal.Options{Sync: pol, FsyncDelay: *fsyncDelay}, tsdb.Options{}, reg)
		if err != nil {
			log.Fatal(err)
		}
		db = store.DB
		log.Printf("recovered %s: %d series from snapshot, %d points replayed from WAL (torn tail: %v)",
			*dataDir, store.Stats.SnapshotSeries, store.Stats.ReplayedPoints, store.Stats.TornTail)
		ss := db.StorageStats()
		log.Printf("storage: %d series, %d points, %d sealed chunks, %.2f bytes/point",
			ss.Series, ss.Points, ss.SealedChunks, ss.BytesPerPoint())
	} else {
		start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
		end := start.Add(time.Duration(*hours) * time.Hour)
		rng := rand.New(rand.NewSource(*seed))

		tree := fleet.Generate(rng, 80, 4)
		if err := tree.AddSubroutine(tree.Root.Name, "victim", "", 20); err != nil {
			log.Fatal(err)
		}
		svc, err := fleet.NewService(fleet.Config{
			Name: *service, Servers: 10000, Step: time.Minute,
			SamplesPerStep: 2e5, BaseCPU: 0.5, CPUNoise: 0.06,
			BaseThroughput: 1e5, Tree: tree, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *regress != 1 {
			svc.ScheduleChange(fleet.ScheduledChange{
				At:     end.Add(-2 * time.Hour),
				Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("victim", *regress) },
			})
		}
		db = tsdb.New(time.Minute)
		log.Printf("simulating %dh of %q ...", *hours, *service)
		if err := svc.Run(db, nil, start, end); err != nil {
			log.Fatal(err)
		}
		samples = fleet.SamplesOf(svc, 1e6)
		log.Printf("data ends %s", end.Format(time.RFC3339))
	}

	cfg := core.Config{
		Threshold: 0.001,
		Windows: timeseries.WindowConfig{
			Historic: time.Duration(*hours-4) * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
	}
	pipe, err := core.NewPipeline(cfg, db, nil, samples)
	if err != nil {
		log.Fatal(err)
	}

	// Self-observability: stage metrics and scan traces from the
	// pipeline, request metrics from the middleware, plus the worker's
	// own scan/error counters — all on /metrics of the same mux (and,
	// with -metrics-listen, on a separate operator-only address too).
	pipe.Instrument(reg, tracer)
	worker := distributed.NewWorker(*listen, pipe)
	worker.Instrument(reg)
	var handler http.Handler
	if store != nil {
		ingest := distributed.NewIngestHandler(store, distributed.IngestOptions{})
		ingest.Instrument(reg)
		profiles := distributed.NewProfilesHandler(store, distributed.ProfilesOptions{TopK: *profileTopK})
		profiles.Instrument(reg)
		handler = distributed.NewIngestMux(worker, ingest, profiles, reg, tracer)

		if *snapshotEvery > 0 {
			go func() {
				for range time.Tick(*snapshotEvery) {
					if err := store.Snapshot(); err != nil {
						log.Printf("snapshot failed: %v", err)
					}
				}
			}()
		}
		// Clean shutdown flushes and snapshots; a crash (SIGKILL) is the
		// case the WAL exists for.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sig
			if err := store.Snapshot(); err != nil {
				log.Printf("shutdown snapshot failed: %v", err)
			}
			if err := store.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
			os.Exit(0)
		}()
	} else {
		handler = distributed.NewMux(worker, reg, tracer)
	}
	if *failFirst > 0 {
		// Chaos middleware: the first -fail-first scan requests are
		// rejected so a coordinator pointed here exercises its retry,
		// breaker, and failover paths against a real worker.
		inner := handler
		var served atomic.Int64
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" && served.Add(1) <= int64(*failFirst) {
				http.Error(w, "chaos: injected failure", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		})
		log.Printf("chaos: failing the first %d /scan requests", *failFirst)
	}
	if *metricsListen != "" {
		debugMux := http.NewServeMux()
		obs.RegisterDebug(debugMux, reg, tracer)
		go func() { log.Fatal(http.ListenAndServe(*metricsListen, debugMux)) }()
		log.Printf("metrics on %s", *metricsListen)
	}
	log.Printf("worker serving %q on %s", *service, *listen)
	log.Fatal(http.ListenAndServe(*listen, handler))
}
