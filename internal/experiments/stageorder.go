package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/fleet"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// StageOrderPoint is one ordering's cost.
type StageOrderPoint struct {
	Order               string
	CostShiftCalls      int
	PairwiseComparisons int
	Elapsed             time.Duration
	Reported            int
}

// AblationStageOrderResult compares the paper's fast-filters-first
// ordering (§5.1: "execute faster algorithms in the early steps ...
// reducing computation in the later, more resource-intensive steps")
// against running the expensive cost-shift analysis before SOMDedup.
type AblationStageOrderResult struct{ Points []StageOrderPoint }

func (r AblationStageOrderResult) String() string {
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{p.Order,
			fmt.Sprintf("%d", p.CostShiftCalls),
			fmt.Sprintf("%d", p.PairwiseComparisons),
			p.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", p.Reported)})
	}
	return "Ablation: pipeline stage ordering\n" +
		table([]string{"order", "cost-shift calls", "pairwise comparisons", "elapsed", "reported"}, rows)
}

// RunAblationStageOrder builds a batch of correlated regression candidates
// (many callers of one regressed subroutine — the SOMDedup motivating
// case) and processes them with both orderings.
func RunAblationStageOrder(seed int64) AblationStageOrderResult {
	rng := rand.New(rand.NewSource(seed))

	// A tree where one hot subroutine is called from many places: its
	// regression surfaces in dozens of gCPU series at once.
	root := &fleet.Node{Name: "main", SelfWeight: 1}
	const callers = 48
	for i := 0; i < callers; i++ {
		caller := &fleet.Node{Name: fmt.Sprintf("caller_%02d", i), SelfWeight: 2,
			Children: []*fleet.Node{{Name: fmt.Sprintf("shared_via_%02d", i), SelfWeight: 5}}}
		root.Children = append(root.Children, caller)
	}
	tree, err := fleet.NewTree(root)
	if err != nil {
		panic(err)
	}
	before := tree.ExpectedSamples(1e6)
	afterTree := tree.Clone()
	for i := 0; i < callers; i++ {
		afterTree.ScaleSelfWeight(fmt.Sprintf("shared_via_%02d", i), 1.2)
	}
	after := afterTree.ExpectedSamples(1e6)

	// One regression candidate per caller series, sharing shape.
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	mkRegression := func(i int) *core.Regression {
		vals := make([]float64, 660)
		base := tree.GCPU(fmt.Sprintf("caller_%02d", i))
		for j := range vals {
			mu := base
			if j >= 500 {
				mu = afterTree.GCPU(fmt.Sprintf("caller_%02d", i))
			}
			vals[j] = mu + rng.NormFloat64()*base*0.01
		}
		s := timeseries.New(start, time.Minute, vals)
		cfgW := timeseries.WindowConfig{Historic: 400 * time.Minute,
			Analysis: 200 * time.Minute, Extended: 60 * time.Minute}
		ws, err := cfgW.Cut(s, s.End())
		if err != nil {
			panic(err)
		}
		r := core.NewRegressionRecord(tsdb.ID("svc", fmt.Sprintf("caller_%02d", i), "gcpu"))
		r.Windows = ws
		r.ChangePoint = 100
		r.ChangePointTime = ws.Analysis.TimeAt(100)
		r.Before = base
		r.After = afterTree.GCPU(fmt.Sprintf("caller_%02d", i))
		r.Delta = r.After - r.Before
		if r.Before > 0 {
			r.Relative = r.Delta / r.Before
		}
		return r
	}
	fresh := func() []*core.Regression {
		out := make([]*core.Regression, callers)
		for i := range out {
			out[i] = mkRegression(i)
		}
		return out
	}

	cfg := core.Config{Threshold: 1e-6, Windows: timeseries.WindowConfig{
		Historic: 400 * time.Minute, Analysis: 200 * time.Minute,
		Extended: 60 * time.Minute}}.WithDefaults()

	run := func(name string, somFirst bool) StageOrderPoint {
		regs := fresh()
		t0 := time.Now()
		costShiftCalls := 0
		costShift := func(rs []*core.Regression) []*core.Regression {
			var out []*core.Regression
			for _, r := range rs {
				costShiftCalls++
				if !core.CheckCostShift(cfg.CostShift, nil, r, before, after).IsCostShift {
					out = append(out, r)
				}
			}
			return out
		}
		somDedup := func(rs []*core.Regression) []*core.Regression {
			res := core.SOMDedup(cfg.Dedup, rs, nil)
			var reps []*core.Regression
			for _, ri := range res.Representatives {
				reps = append(reps, rs[ri])
			}
			return reps
		}
		var survivors []*core.Regression
		if somFirst {
			survivors = costShift(somDedup(regs))
		} else {
			survivors = somDedup(costShift(regs))
		}
		pd := core.NewPairwiseDeduper(after)
		pairwise := 0
		reported := 0
		for _, r := range survivors {
			pairwise += len(pd.Groups())
			if _, merged := pd.Merge(r); !merged {
				reported++
			}
		}
		return StageOrderPoint{Order: name, CostShiftCalls: costShiftCalls,
			PairwiseComparisons: pairwise, Elapsed: time.Since(t0), Reported: reported}
	}

	return AblationStageOrderResult{Points: []StageOrderPoint{
		run("fast-first (SOMDedup -> cost shift, shipped)", true),
		run("expensive-first (cost shift -> SOMDedup)", false),
	}}
}
