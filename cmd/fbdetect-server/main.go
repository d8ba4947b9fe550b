// Command fbdetect-server runs the multi-tenant control plane: the
// long-lived service a fleet registers against, as opposed to the
// single-purpose fbdetect-worker. It serves, behind per-tenant API keys:
//
//   - POST /ingest     — NDJSON point batches, namespaced per tenant,
//     series-quota and rate-limit enforced, durable via the WAL store
//   - POST /profiles   — raw CPU profiles folded into gCPU series
//   - POST /scan       — a detection scan of one tenant service
//   - POST /operations — async jobs (backfill, sweep):
//     202 + Location: /operations/{id}, poll honoring Retry-After
//   - /admin/tenants   — tenant registration and listing, behind -admin-key
//
// Every operation state transition is journaled through the WAL before
// it is acknowledged. Kill -9 the server mid-backfill and restart: the
// store recovers, tenants and their quota usage recover, and in-flight
// operations re-run to a terminal state with no client involvement.
//
//	fbdetect-server -listen :8080 -data-dir /var/lib/fbdetect -admin-key secret
//	curl -X POST -H "Authorization: Bearer secret" localhost:8080/admin/tenants \
//	  -d '{"name":"team-a"}'
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

	"fbdetect/internal/controlplane"
	"fbdetect/internal/obs"
	"fbdetect/internal/wal"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "listen address")
		dataDir       = flag.String("data-dir", "", "durable root: TSDB WAL+snapshots plus tenant and operation journals (required)")
		adminKey      = flag.String("admin-key", "", "bearer key for /admin/* (required; also honors FBDETECT_ADMIN_KEY)")
		walSync       = flag.String("wal-sync", "batch", "WAL sync policy: always, batch, or never")
		snapshotEvery = flag.Duration("snapshot-every", 0, "snapshot the store and compact the WAL at this interval (0 = only on shutdown)")
		jobWorkers    = flag.Int("job-workers", 2, "concurrent async-operation runners")
		maxSeries     = flag.Int("default-max-series", 1000, "default per-tenant series quota")
		ratePerSec    = flag.Float64("default-rate", 50, "default per-tenant sustained requests/sec")
		burst         = flag.Int("default-burst", 100, "default per-tenant burst depth")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("fbdetect-server"))
		return
	}
	if *adminKey == "" {
		*adminKey = os.Getenv("FBDETECT_ADMIN_KEY")
	}
	if *dataDir == "" || *adminKey == "" {
		log.Fatal("fbdetect-server: -data-dir and -admin-key are required")
	}
	pol, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := controlplane.NewServer(controlplane.Options{
		DataDir:  *dataDir,
		AdminKey: *adminKey,
		WAL:      wal.Options{Sync: pol},
		DefaultQuotas: controlplane.Quotas{
			MaxSeries: *maxSeries, RatePerSec: *ratePerSec, Burst: *burst,
		},
		JobWorkers: *jobWorkers,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The recovery lines below are the contract the crash drills grep:
	// after a SIGKILL they report what survived.
	st := srv.Store()
	log.Printf("recovered %s: %d series from snapshot, %d points replayed from WAL (torn tail: %v)",
		*dataDir, st.Stats.SnapshotSeries, st.Stats.ReplayedPoints, st.Stats.TornTail)
	log.Printf("recovered %d tenants, requeued %d in-flight operations",
		srv.Tenants(), srv.RecoveredOps())

	if *snapshotEvery > 0 {
		go func() {
			for range time.Tick(*snapshotEvery) {
				if err := srv.Snapshot(); err != nil {
					log.Printf("snapshot failed: %v", err)
				}
			}
		}()
	}

	// Clean shutdown drains the job queue and snapshots; a SIGKILL skips
	// all of this — that is what the journals are for.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		if err := srv.Close(); err != nil {
			log.Printf("shutdown: %v", err)
		}
		os.Exit(0)
	}()

	log.Printf("control plane serving on %s", *listen)
	log.Fatal(http.ListenAndServe(*listen, srv.Handler()))
}
