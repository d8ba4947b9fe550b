// Command invoicer reproduces the paper's small-service scenario (§3):
// Invoicer runs on just 16 servers, so FBDetect samples aggressively (one
// stack per server per second instead of per minute) and uses long
// windows (14d/1d/1d) to accumulate enough data to detect 0.5% gCPU
// regressions. The demo compresses the windows but keeps the
// high-sampling/small-fleet structure, injecting a 0.6% regression and
// showing it caught.
package main

import (
	"fmt"
	"log"
	"time"

	"fbdetect"
	"fbdetect/internal/fleet"
)

func main() {
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)

	root := &fleet.Node{Name: "main", SelfWeight: 2, Children: []*fleet.Node{
		{Name: "generate_invoice", SelfWeight: 30, Children: []*fleet.Node{
			{Name: "Tax::compute", Class: "Tax", SelfWeight: 12},
			{Name: "Tax::lookup_rates", Class: "Tax", SelfWeight: 8},
			{Name: "render_pdf", SelfWeight: 25},
		}},
		{Name: "billing_sync", SelfWeight: 23},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		log.Fatal(err)
	}

	// 16 servers, 1 sample/server/second, aggregated into 10-minute
	// buckets => 9600 samples per step. Aggregating is how a tiny fleet
	// accumulates enough samples per point (paper §3: Invoicer's high
	// sampling rate plus long windows).
	svc, err := fleet.NewService(fleet.Config{
		Name:           "invoicer",
		Servers:        16,
		Step:           10 * time.Minute,
		SamplesPerStep: 16 * 600,
		BaseCPU:        0.35,
		CPUNoise:       0.15, // small fleets are noisy
		BaseThroughput: 120,
		Tree:           tree,
		Seed:           5,
	})
	if err != nil {
		log.Fatal(err)
	}

	var changes fbdetect.ChangeLog
	// render_pdf regresses: gCPU(render_pdf) = 0.25 rises ~2% relative,
	// about a 0.5% absolute gCPU change — right at Invoicer's threshold.
	svc.ScheduleChange(fleet.ScheduledChange{
		At: start.Add(30 * time.Hour),
		Effect: func(tr *fleet.Tree) error {
			return tr.ScaleSelfWeight("render_pdf", 1.035)
		},
		Record: &fbdetect.Change{
			ID:          "D55",
			Title:       "embed fonts in rendered PDFs",
			Description: "render_pdf now embeds the full font set",
			Subroutines: []string{"render_pdf"},
		},
	})

	db := fbdetect.NewDB(10 * time.Minute)
	end := start.Add(40 * time.Hour)
	fmt.Println("simulating 40h of the 16-server Invoicer service...")
	if err := svc.Run(db, &changes, start, end); err != nil {
		log.Fatal(err)
	}

	cfg := fbdetect.InvoicerShort()
	// Compress 14d/1d/1d to 28h/8h/4h for the demo.
	cfg.Windows = fbdetect.WindowConfig{
		Historic: 28 * time.Hour,
		Analysis: 8 * time.Hour,
		Extended: 4 * time.Hour,
	}

	det, err := fbdetect.NewDetector(cfg, db, &changes, fleet.SamplesOf(svc, 1e5))
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Scan("invoicer", end)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nchange points: %d, reported: %d\n",
		res.Funnel.ChangePoints, len(res.Reported))
	for _, r := range res.Reported {
		fmt.Printf("  %s\n", r)
		for _, rc := range r.RootCauses {
			fmt.Printf("    suspect %s (score %.2f)\n", rc.ChangeID, rc.Score)
		}
	}
	if len(res.Reported) == 0 {
		fmt.Println("nothing detected — the regression is at the detection floor " +
			"for a 16-server fleet; rerun with a longer analysis window")
	}
}
