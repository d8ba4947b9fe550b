// Command tao reproduces the paper's TAO workload (§3): FBDetect monitors
// the graph database's per-data-type I/O from upstream serverless
// platforms. A client code change that starts issuing 40% more reads for
// one data type is a per-data-type I/O regression; overall query
// throughput barely moves, so only subroutine/data-type-level monitoring
// catches it.
package main

import (
	"fmt"
	"log"
	"time"

	"fbdetect"
	"fbdetect/internal/tao"
)

func main() {
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	const step = time.Minute

	store := tao.NewStore()
	wl, err := tao.NewWorkload(tao.WorkloadConfig{
		Service: "tao",
		Step:    step,
		Mixes: []tao.TypeMix{
			{DataType: "user", ReadsPerStep: 400, WritesPerStep: 40},
			{DataType: "post", ReadsPerStep: 300, WritesPerStep: 60},
			{DataType: "comment", ReadsPerStep: 2500, WritesPerStep: 250},
			{DataType: "like", ReadsPerStep: 1800, WritesPerStep: 400},
		},
		RateNoise: 0.02,
		Objects:   5000,
		Seed:      3,
	}, store)
	if err != nil {
		log.Fatal(err)
	}

	// The regression: a PythonFaaS change begins re-reading "post"
	// objects on every request — +40% reads for one data type.
	changeAt := start.Add(7 * time.Hour)
	wl.ScheduleMixEvent(tao.MixEvent{
		At: changeAt, DataType: "post", ReadFactor: 1.4,
	})

	var changes fbdetect.ChangeLog
	changes.Record(&fbdetect.Change{
		ID:          "D-cache-bypass",
		Kind:        fbdetect.CodeChange,
		Service:     "tao",
		Title:       "bypass post cache for freshness",
		Description: "fetch post objects directly from tao instead of the edge cache",
		DeployedAt:  changeAt,
	})

	db := fbdetect.NewDB(step)
	end := start.Add(9 * time.Hour)
	fmt.Println("driving the TAO graph store for 9 simulated hours...")
	if err := wl.Run(db, start, end); err != nil {
		log.Fatal(err)
	}
	counts := store.TypeCounts()
	fmt.Printf("store executed %d object gets and %d assoc ranges for 'post'\n",
		counts["post"][0], counts["post"][3])

	det, err := fbdetect.NewDetector(fbdetect.Config{
		Threshold:         0.1, // 10% relative
		RelativeThreshold: true,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
		// No stack samples exist for I/O series, so root-cause ranking
		// relies on text similarity and deploy-time correlation alone;
		// lower the confidence bar accordingly.
		RootCause: fbdetect.RootCauseConfig{MinScore: 0.15},
	}, db, &changes, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Scan("tao", end)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nchange points: %d, reported: %d\n",
		res.Funnel.ChangePoints, len(res.Reported))
	for _, r := range res.Reported {
		fmt.Printf("  %s\n", r)
		for _, rc := range r.RootCauses {
			fmt.Printf("    suspect: %s (score %.2f)\n", rc.ChangeID, rc.Score)
		}
	}
	// Show that total throughput alone would have hidden the per-type
	// regression.
	thr, _ := db.Full(fbdetect.ID("tao", "", "throughput"))
	cp := thr.IndexOf(changeAt)
	before, after := mean(thr.Values[:cp]), mean(thr.Values[cp:])
	fmt.Printf("\ntotal throughput moved only %+.1f%% — the per-data-type series made the 40%% regression visible\n",
		(after-before)/before*100)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
