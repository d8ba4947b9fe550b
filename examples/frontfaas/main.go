// Command frontfaas simulates the paper's flagship scenario: a serverless
// platform where a code change regresses one subroutine by a tiny absolute
// amount that is nevertheless a large relative change at the subroutine
// level (paper §2), while a second change is a pure cost-shift refactoring
// that must be filtered (Figure 1(b)), and a transient load spike must not
// be reported (Figure 1(c)).
//
// It demonstrates:
//   - fleet simulation with a generated call tree and diurnal seasonality
//   - detection of the true regression with root-cause ranking
//   - filtering of the cost shift and the transient issue
//   - the Table 3-style funnel report
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"fbdetect"
	"fbdetect/internal/fleet"
)

func main() {
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))

	// A web-tier call tree with a few hundred subroutines plus two
	// hand-placed classes the scenario manipulates.
	tree := fleet.Generate(rng, 200, 4)
	root := tree.Root.Name
	must(tree.AddSubroutine(root, "Feed::render", "Feed", 40))
	must(tree.AddSubroutine(root, "Feed::rank", "Feed", 40))
	must(tree.AddSubroutine(root, "serialize_response", "", 25))

	svc, err := fleet.NewService(fleet.Config{
		Name:           "frontfaas",
		Servers:        100000,
		Step:           time.Minute,
		SamplesPerStep: 500000, // fleet-wide samples per minute
		BaseCPU:        0.55,
		CPUNoise:       0.08,
		SeasonalAmp:    0.05,
		SeasonalPeriod: 24 * time.Hour,
		BaseThroughput: 2e6,
		Tree:           tree,
		Seed:           11,
		// Emit only the interesting subroutines plus a sample of others to
		// keep the demo fast.
		EmitSubroutines: emitList(tree, 40,
			"Feed::render", "Feed::rank", "serialize_response"),
	})
	if err != nil {
		log.Fatal(err)
	}

	var changes fbdetect.ChangeLog

	// 1. The true regression: serialize_response gets 8% more expensive.
	svc.ScheduleChange(fleet.ScheduledChange{
		At: start.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error {
			return tr.ScaleSelfWeight("serialize_response", 1.08)
		},
		Record: &fbdetect.Change{
			ID:          "D1001",
			Title:       "switch serialize_response to the new encoder",
			Description: "rolls out the v2 wire encoder for response serialization",
			Subroutines: []string{"serialize_response"},
		},
	})

	// 2. The cost shift: rendering work moves from Feed::rank into
	// Feed::render with no total change (Figure 1(b)).
	svc.ScheduleChange(fleet.ScheduledChange{
		At: start.Add(7 * time.Hour),
		Effect: func(tr *fleet.Tree) error {
			return tr.ShiftWeight("Feed::rank", "Feed::render", 20)
		},
		Record: &fbdetect.Change{
			ID:          "D1002",
			Title:       "move ranking annotations into render",
			Description: "pure refactor: hoists annotation work from rank to render",
			Subroutines: []string{"Feed::rank", "Feed::render"},
		},
	})

	// 3. A transient load spike that recovers (Figure 1(c)).
	svc.ScheduleIssue(fleet.DefaultIssue(fleet.LoadSpike,
		start.Add(6*time.Hour), 30*time.Minute))

	db := fbdetect.NewDB(time.Minute)
	end := start.Add(9 * time.Hour)
	fmt.Println("simulating 9h of a 100k-server serverless platform...")
	if err := svc.Run(db, &changes, start, end); err != nil {
		log.Fatal(err)
	}

	cfg := fbdetect.FrontFaaSSmall()
	// The demo compresses Table 1's multi-day windows into hours so it
	// runs in seconds; thresholds keep their meaning.
	cfg.Windows = fbdetect.WindowConfig{
		Historic: 5 * time.Hour,
		Analysis: 3 * time.Hour,
		Extended: time.Hour,
	}
	cfg.Threshold = 0.0005

	det, err := fbdetect.NewDetector(cfg, db, &changes, fleet.SamplesOf(svc, 2e6))
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Scan("frontfaas", end)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- funnel (Table 3 style) ---")
	f := res.Funnel
	fmt.Printf("change points:        %d\n", f.ChangePoints)
	fmt.Printf("after went-away:      %d\n", f.AfterWentAway)
	fmt.Printf("after seasonality:    %d\n", f.AfterSeasonality)
	fmt.Printf("after threshold:      %d\n", f.AfterThreshold)
	fmt.Printf("after same-merger:    %d\n", f.AfterSameMerger)
	fmt.Printf("after SOM dedup:      %d\n", f.AfterSOMDedup)
	fmt.Printf("after cost shift:     %d\n", f.AfterCostShift)
	fmt.Printf("reported (pairwise):  %d\n", f.AfterPairwise)

	fmt.Println("\n--- reported regressions ---")
	for _, r := range res.Reported {
		fmt.Printf("%s\n", r)
		for i, rc := range r.RootCauses {
			c := changes.ByID(rc.ChangeID)
			title := "?"
			if c != nil {
				title = c.Title
			}
			fmt.Printf("  root cause #%d: %s (%q) score=%.2f attribution=%.0f%%\n",
				i+1, rc.ChangeID, title, rc.Score, rc.Attribution*100)
		}
	}
	if len(res.Reported) == 0 {
		fmt.Println("(none)")
	}
}

// emitList returns the named subroutines plus a deterministic sample of n
// others from the tree.
func emitList(tree *fleet.Tree, n int, named ...string) []string {
	all := tree.Subroutines()
	sort.Strings(all)
	out := append([]string{}, named...)
	stride := len(all) / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(all) && len(out) < n+len(named); i += stride {
		out = append(out, all[i])
	}
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
