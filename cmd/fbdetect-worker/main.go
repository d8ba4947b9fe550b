// Command fbdetect-worker runs one durable detection scan worker, the
// sharded deployment shape production FBDetect uses (paper §5.1). It
// recovers a WAL+snapshot store from -data-dir, serves POST /ingest for
// streaming NDJSON point batches (fleetsim -stream produces them) and
// POST /profiles for raw CPU profiles (gzipped pprof protobuf or folded
// stacks, folded into per-subroutine gCPU series), and answers POST
// /scan for a coordinator (fbdetect -workers) or curl over whatever
// series have been ingested:
//
//	fbdetect-worker -listen :8080 -data-dir /var/lib/fbdetect &
//	fleetsim -hours 9 -regress 2 -stream http://localhost:8080
//	curl -X POST localhost:8080/scan \
//	  -d '{"service":"fleetsim","scan_time":"2024-08-01T09:00:00Z"}'
//
// Kill -9 it mid-ingest and restart: acknowledged batches survive.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "listen address")
		metricsListen = flag.String("metrics-listen", "", "extra listen address serving only /metrics, /healthz and /debug/pprof (default: those routes share -listen)")
		dataDir       = flag.String("data-dir", "", "directory of the WAL+snapshot store, recovered at startup (required)")
		walSync       = flag.String("wal-sync", "batch", "WAL sync policy: always, batch, or never")
		snapshotEvery = flag.Duration("snapshot-every", 0, "snapshot the store and compact the WAL at this interval (0 = only on shutdown)")
		fsyncDelay    = flag.Duration("fsync-delay", 0, "fault injection: artificial delay added to every WAL fsync, widening the crash window for recovery tests")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("fbdetect-worker"))
		return
	}
	if *dataDir == "" {
		log.Fatal("fbdetect-worker: -data-dir is required")
	}
	pol, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	obs.RegisterBuildInfo(reg, "fbdetect-worker")

	store, err := wal.OpenStore(*dataDir, time.Minute,
		wal.Options{Sync: pol, FsyncDelay: *fsyncDelay}, tsdb.Options{}, reg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("recovered %s: %d series from snapshot, %d points replayed from WAL (torn tail: %v)",
		*dataDir, store.Stats.SnapshotSeries, store.Stats.ReplayedPoints, store.Stats.TornTail)
	ss := store.DB.StorageStats()
	log.Printf("storage: %d series, %d points, %d sealed chunks, %.2f bytes/point",
		ss.Series, ss.Points, ss.SealedChunks, ss.BytesPerPoint())

	pipe, err := core.NewPipeline(distributed.ServedConfig(), store.DB, nil, nil)
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
	ingest := distributed.NewIngestHandler(store, distributed.IngestOptions{})
	ingest.Instrument(reg)
	profiles := distributed.NewProfilesHandler(store, distributed.ProfilesOptions{})
	profiles.Instrument(reg)
	handler := distributed.NewIngestMux(worker, ingest, profiles, reg, tracer)

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

	if *metricsListen != "" {
		debugMux := http.NewServeMux()
		obs.RegisterDebug(debugMux, reg, tracer)
		go func() { log.Fatal(http.ListenAndServe(*metricsListen, debugMux)) }()
		log.Printf("metrics on %s", *metricsListen)
	}
	log.Printf("worker serving %s on %s", *dataDir, *listen)
	log.Fatal(http.ListenAndServe(*listen, handler))
}
