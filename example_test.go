package fbdetect_test

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fbdetect"
)

// Example demonstrates the minimal detection loop: ingest a gCPU series
// with a mid-series regression and scan it.
func Example() {
	db := fbdetect.NewDB(time.Minute)
	metric := fbdetect.ID("svc", "render", "gcpu")
	rng := rand.New(rand.NewSource(1))
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 540; i++ {
		mean := 0.010
		if i >= 420 { // regression in the analysis window
			mean = 0.011
		}
		db.Append(metric, start.Add(time.Duration(i)*time.Minute),
			mean+rng.NormFloat64()*0.0002)
	}
	det, _ := fbdetect.NewDetector(fbdetect.Config{
		Threshold: 0.0005,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
	}, db, nil, nil)
	res, _ := det.Scan("svc", start.Add(9*time.Hour))
	for _, r := range res.Reported {
		fmt.Printf("%s/%s: %.2f%% -> %.2f%%\n", r.Service, r.Entity, r.Before*100, r.After*100)
	}
	// Output:
	// svc/render: 1.00% -> 1.10%
}

// ExampleReadFolded ingests collapsed profiler output and queries gCPU.
func ExampleReadFolded() {
	folded := "main;render;encode 8\nmain;fetch 12\n"
	ss, _ := fbdetect.ReadFolded(strings.NewReader(folded))
	fmt.Printf("gCPU(render) = %.0f%%\n", ss.GCPU("render")*100)
	// Output:
	// gCPU(render) = 40%
}

// ExampleSampleSet_GCPUGroup computes a cost domain's total, used by
// cost-shift analysis.
func ExampleSampleSet_GCPUGroup() {
	ss := fbdetect.NewSampleSet()
	ss.Add(fbdetect.ParseTrace("main->Cache::get"), 3)
	ss.Add(fbdetect.ParseTrace("main->Cache::put"), 1)
	ss.Add(fbdetect.ParseTrace("main->other"), 6)
	domain := map[string]bool{"Cache::get": true, "Cache::put": true}
	fmt.Printf("class domain cost = %.0f%%\n", ss.GCPUGroup(domain)*100)
	// Output:
	// class domain cost = 40%
}
