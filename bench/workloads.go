package main

import (
	"math"
	"time"
)

// A workload is a fixed script: its request lists follow from (seed,
// scale) alone, never from how fast the machine happens to be.
//
// Every constant below is sized for nproc = 2 and for the driver's
// budget of roughly half a minute per run, set-up and verification
// included. cyclePeriod was chosen once, so that the SUT spends about 30%
// of the machine's CPU in phase B, which leaves a sweep room to run twice
// as long as usual before the next tick is late; it is never derived at
// run time.
//
// tenant_mix runs -wal-sync batch like the others. Under always, two sets
// of ten runs an hour apart read ack_p50_ms 11% and 52% apart in their
// quartiles (ack_p90_ms 14% and 78%): every ack then waits for an fsync of
// a disk this VM shares, and that is not the program's noise.
type workload struct {
	name string
	why  string
	// binary is the shipped program under test and walSync its -wal-sync.
	binary  string
	walSync string
	streams []streamSpec
	// setups is how often set-up is repeated for the setup_s median. An
	// NDJSON set-up is 30-50 ms of process spawn and warm-up, so it is
	// repeated more often than a profile one, which spends 0.6 s building
	// its pools.
	setups int
	// phaseASteps data-time steps are ingested closed-loop before the
	// first sweep; the first warmupSteps of them are sent untimed.
	phaseASteps int
	cycles      int
	cyclePeriod time.Duration
	// backfillPoints > 0 ends the run with one async backfill operation.
	backfillPoints int
}

const (
	kindNDJSON = "ndjson"
	kindPprof  = "pprof"
)

// streamSpec is one closed-loop sender on one connection.
type streamSpec struct {
	tenant     string // empty against the single-tenant worker
	kind       string
	services   int
	perService int // NDJSON: series per service; pprof: functions per service, of which the top-K 200 become series
	// wide puts one step of every service into a single request; otherwise
	// each request carries one service-step.
	wide bool
}

const (
	binWorker = "fbdetect-worker"
	binServer = "fbdetect-server"

	warmupRequests = 20
	staticSweeps   = 20
	backfillBatch  = 512
)

var workloads = []workload{
	{
		name:   "ingest_ndjson",
		why:    "bulk NDJSON ingest: decode, WAL append, AppendBatch and chunk seals do most of the SUT's CPU, detection the rest",
		binary: binWorker, walSync: "batch",
		streams:     []streamSpec{{kind: kindNDJSON, services: 2, perService: 200, wide: true}},
		setups:      15,
		phaseASteps: 5600, cycles: 100, cyclePeriod: 65 * time.Millisecond,
	},
	{
		name:   "ingest_pprof",
		why:    "gzipped pprof uploads: pprofparse and stack folding dominate and NDJSON decode is absent",
		binary: binWorker, walSync: "batch",
		streams:     []streamSpec{{kind: kindPprof, services: 2, perService: 300}},
		setups:      5,
		phaseASteps: 1210, cycles: 100, cyclePeriod: 100 * time.Millisecond,
	},
	{
		name:   "live_slide",
		why:    "every cycle slides every window one step, so each series misses both caches and pays full detection; ingest does little",
		binary: binWorker, walSync: "batch",
		streams:     []streamSpec{{kind: kindNDJSON, services: 4, perService: 150}},
		setups:      15,
		phaseASteps: 600, cycles: 150, cyclePeriod: 100 * time.Millisecond,
	},
	{
		name:   "tenant_mix",
		why:    "two tenants write NDJSON and pprof concurrently through auth, namespacing and quotas, then scan, backfill and probe isolation",
		binary: binServer, walSync: "batch",
		streams: []streamSpec{
			{tenant: "alpha", kind: kindNDJSON, services: 3, perService: 50},
			{tenant: "beta", kind: kindPprof, services: 2, perService: 300},
		},
		setups:      5,
		phaseASteps: 620, cycles: 100, cyclePeriod: 130 * time.Millisecond,
		backfillPoints: 200_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns the workload for -seconds = scale x run_seconds. Below 1
// it shrinks series counts, the history beyond the first full window and
// the cycle count together, which is what the shortened test runs use;
// above 1 only history and cycles grow.
func (w workload) scaled(scale float64) workload {
	if scale == 1 {
		return w
	}
	w.streams = append([]streamSpec(nil), w.streams...)
	for i := range w.streams {
		if scale < 1 {
			w.streams[i].perService = max(25, int(math.Ceil(float64(w.streams[i].perService)*scale)))
		}
	}
	const floor = historySteps + 5
	w.phaseASteps = floor + int(math.Round(float64(w.phaseASteps-floor)*scale))
	w.cycles = max(5, int(math.Round(float64(w.cycles)*scale)))
	w.backfillPoints = int(math.Round(float64(w.backfillPoints) * scale))
	return w
}
