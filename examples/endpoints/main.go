// Command endpoints demonstrates endpoint-level regression detection
// (paper §3): an endpoint request spans multiple subroutines across
// threads, and its aggregate cost is monitored alongside subroutine gCPU.
// The scenario regresses one subroutine used by /feed/home, detects the
// endpoint-level regression, and shows the endpoint-prefix cost domain
// filtering a handler split that merely moved cost between sibling
// endpoints.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"fbdetect"
	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/tracing"
)

func main() {
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	const step = time.Minute

	root := &fleet.Node{Name: "main", SelfWeight: 1, Children: []*fleet.Node{
		{Name: "feed_rank", SelfWeight: 12},
		{Name: "feed_render", SelfWeight: 18},
		{Name: "profile_load", SelfWeight: 10},
		{Name: "ads_mix", SelfWeight: 8},
		{Name: "story_a", SelfWeight: 9},
		{Name: "story_b", SelfWeight: 3},
	}}
	tree, err := fleet.NewTree(root)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := fleet.NewService(fleet.Config{
		Name:           "web",
		Servers:        20000,
		Step:           step,
		SamplesPerStep: 0, // endpoint-only scenario
		BaseCPU:        0.5,
		BaseThroughput: 1e5,
		Tree:           tree,
		Seed:           4,
	})
	if err != nil {
		log.Fatal(err)
	}

	endpoints := []fleet.EndpointSpec{
		{Name: "/feed/home", Subroutines: []string{"feed_rank", "feed_render"}, CostNoise: 0.01},
		{Name: "/feed/profile", Subroutines: []string{"profile_load", "feed_render"}, CostNoise: 0.01},
		{Name: "/story/a", Subroutines: []string{"story_a"}, CostNoise: 0.01},
		{Name: "/story/b", Subroutines: []string{"story_b"}, CostNoise: 0.01},
		{Name: "/ads", Subroutines: []string{"ads_mix"}, CostNoise: 0.01},
	}

	changeAt := start.Add(7 * time.Hour)
	// True endpoint regression: feed_rank slows by 25%, raising
	// /feed/home's aggregate cost.
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     changeAt,
		Effect: func(tr *fleet.Tree) error { return tr.ScaleSelfWeight("feed_rank", 1.25) },
	})
	// Handler split an hour earlier: work moves from story_a to story_b;
	// /story/b "regresses" but the /story prefix-domain total is
	// unchanged. (Deployed at a different time than the feed change so
	// PairwiseDedup does not fold the two events into one group.)
	svc.ScheduleChange(fleet.ScheduledChange{
		At:     changeAt.Add(-time.Hour),
		Effect: func(tr *fleet.Tree) error { return tr.ShiftWeight("story_a", "story_b", 4) },
	})

	db := fbdetect.NewDB(step)
	end := start.Add(9 * time.Hour)
	fmt.Println("emitting endpoint cost series for 9 simulated hours...")
	if err := svc.EmitEndpoints(db, endpoints, start, end); err != nil {
		log.Fatal(err)
	}

	// Show the tracing machinery that produces endpoint costs in
	// production: aggregate cross-thread spans for /feed/home.
	rng := rand.New(rand.NewSource(9))
	agg := tracing.NewAggregator()
	for _, tr := range svc.GenerateTraces(rng, endpoints[0], end.Add(-time.Minute), 100) {
		if err := agg.Record(tr); err != nil {
			log.Fatal(err)
		}
	}
	for _, st := range agg.Snapshot() {
		fmt.Printf("traced %s: %d requests, mean cost %v across %d subroutines\n",
			st.Endpoint, st.Requests, st.MeanCPU.Round(time.Microsecond), len(st.Subroutines))
	}

	cfg := fbdetect.Config{
		Threshold:         0.05, // 5% relative endpoint cost
		RelativeThreshold: true,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
	}
	det, err := fbdetect.NewDetector(cfg, db, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Scan("web", end)
	if err != nil {
		log.Fatal(err)
	}

	f := res.Funnel
	fmt.Printf("\nchange points: %d, after SOMDedup: %d, after cost-shift: %d\n",
		f.ChangePoints, f.AfterSOMDedup, f.AfterCostShift)
	for _, r := range res.Reported {
		fmt.Printf("  REPORTED %s\n", r)
	}
	if f.AfterSOMDedup > f.AfterCostShift {
		fmt.Printf("\nthe /story/b handler split was filtered inside the pipeline's "+
			"cost-shift stage (%d candidate(s) removed): its /story prefix-domain "+
			"total was unchanged\n", f.AfterSOMDedup-f.AfterCostShift)
	}
	// The same check is available standalone for ad-hoc investigation:
	for _, id := range db.Metrics("web") {
		_, entity, name := id.Parts()
		if entity != "endpoint:/story/b" || name != "endpoint_cost" {
			continue
		}
		r := &fbdetect.Regression{Service: "web", Entity: entity, Name: name,
			Metric: id, ChangePointTime: changeAt.Add(-time.Hour), Delta: 4, Relative: 1.3}
		v := core.CheckEndpointCostShift(cfg.CostShift, db, r, cfg.Windows, end)
		fmt.Printf("standalone check on %s: cost shift = %v (domain %s)\n",
			id, v.IsCostShift, v.Domain)
	}
}
