package evalharness

import (
	"fmt"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/fleet"
)

// fleetScale is the default stack-sample volume per step, the harness's
// stand-in for "the whole fleet is profiled": at p ≈ 1% gCPU the binomial
// noise floor is sqrt(p(1-p)/n) ≈ 4.5e-6, low enough that even a 0.002%
// injection is a few sigma — the paper's point that tiny regressions only
// become visible with fleet-scale aggregation (§2, Figures 2-3).
const fleetScale = 5e8

// scenarioTree builds the harness's standard call tree with the injection
// target at the given depth (1-3). The target always starts at ~1% gCPU
// (the paper's "non-trivial subroutine" scale); its ancestors form the
// chain root -> outer -> inner so depth sweeps exercise detection on
// leaves and on mid-tree subroutines alike.
//
// Every node name is prefixed with the scenario's slug so subroutines are
// globally unique across the suite. Scenarios are separate services with
// unrelated code; reusing one subroutine name everywhere would make
// PairwiseDedup's text-similarity and stack-overlap features legitimately
// merge distinct injected regressions into a single cross-service group,
// which is correct pipeline behavior but wrong ground truth.
func scenarioTree(slug string, depth int) (*fleet.Tree, string, error) {
	target := &fleet.Node{Name: slug + "hot", SelfWeight: 1}
	stage2 := &fleet.Node{Name: slug + "inner", SelfWeight: 24}
	stage1 := &fleet.Node{Name: slug + "outer", SelfWeight: 24}
	root := &fleet.Node{Name: slug + "main", SelfWeight: 2}
	filler := &fleet.Node{Name: slug + "steady", SelfWeight: 49}
	switch depth {
	case 1:
		root.Children = []*fleet.Node{target, stage1, filler}
		stage1.Children = []*fleet.Node{stage2}
	case 2:
		root.Children = []*fleet.Node{stage1, filler}
		stage1.Children = []*fleet.Node{target, stage2}
	default:
		root.Children = []*fleet.Node{stage1, filler}
		stage1.Children = []*fleet.Node{stage2}
		stage2.Children = []*fleet.Node{target}
	}
	tree, err := fleet.NewTree(root)
	if err != nil {
		return nil, "", err
	}
	return tree, target.Name, nil
}

// scaleForDelta returns the self-weight factor that raises the named
// subroutine's gCPU by exactly delta. gCPU is a fraction, so adding self
// weight x raises it to (subtree+x)/(total+x); solving for the target
// delta gives x = total*delta/(1-p-delta).
func scaleForDelta(tree *fleet.Tree, name string, delta float64) (float64, error) {
	n := tree.Node(name)
	if n == nil {
		return 0, fmt.Errorf("evalharness: unknown subroutine %q", name)
	}
	if n.SelfWeight <= 0 {
		return 0, fmt.Errorf("evalharness: %q has no self weight to scale", name)
	}
	p := tree.GCPU(name)
	if p+delta >= 1 {
		return 0, fmt.Errorf("evalharness: delta %v overflows gCPU from %v", delta, p)
	}
	x := tree.TotalWeight() * delta / (1 - p - delta)
	return 1 + x/n.SelfWeight, nil
}

// baseService is the service configuration the scenarios share; noise
// levels follow the fleet simulator's production-shaped defaults.
func baseService(name string, env Env, tree *fleet.Tree, samples float64, emit []string) fleet.Config {
	return fleet.Config{
		Name: name, Servers: 50000, Step: env.Step,
		SamplesPerStep: samples,
		BaseCPU:        0.5, CPUNoise: 0.05,
		BaseThroughput: 2e5, ThroughputNoise: 400,
		Tree:            tree,
		Seed:            env.Seed,
		EmitSubroutines: emit,
	}
}

// StepRegression injects a persistent step of the given gCPU delta into
// the target subroutine at env.Start+onset, recording the causing change
// so root-cause ranking can be scored. samples controls the profiling
// volume (fleet size proxy); depth places the target in the call tree.
func StepRegression(name, slug string, delta float64, depth int, onset time.Duration, samples float64) Scenario {
	return Scenario{Name: name, Class: ClassRegression,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			tree, target, err := scenarioTree(slug, depth)
			if err != nil {
				return nil, nil, err
			}
			factor, err := scaleForDelta(tree, target, delta)
			if err != nil {
				return nil, nil, err
			}
			svc, err := fleet.NewService(baseService(name, env, tree, samples, []string{target}))
			if err != nil {
				return nil, nil, err
			}
			at := env.Start.Add(onset)
			changeID := name + "-change"
			svc.ScheduleChange(fleet.ScheduledChange{
				At:     at,
				Effect: func(t *fleet.Tree) error { return t.ScaleSelfWeight(target, factor) },
				Record: &changelog.Change{ID: changeID,
					Title:       "slow down " + target,
					Subroutines: []string{target}},
			})
			return svc, []Label{{
				Scenario: name, Class: ClassRegression, Service: name,
				Entities: pathEntities(tree, target),
				Onset:    at, Magnitude: delta, Expect: true,
				ChangeID: changeID, AffectedSeries: 1,
			}}, nil
		}}
}

// CorrelatedDuplicates injects one regression that visibly moves several
// series at once — the target plus its enclosing subroutines all emit gCPU
// — so the deduplication stages must collapse the event to one report.
func CorrelatedDuplicates(name, slug string, delta float64, onset time.Duration) Scenario {
	return Scenario{Name: name, Class: ClassDuplicate,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			tree, target, err := scenarioTree(slug, 3)
			if err != nil {
				return nil, nil, err
			}
			factor, err := scaleForDelta(tree, target, delta)
			if err != nil {
				return nil, nil, err
			}
			emit := []string{target, slug + "inner", slug + "outer"}
			svc, err := fleet.NewService(baseService(name, env, tree, fleetScale, emit))
			if err != nil {
				return nil, nil, err
			}
			at := env.Start.Add(onset)
			changeID := name + "-change"
			svc.ScheduleChange(fleet.ScheduledChange{
				At:     at,
				Effect: func(t *fleet.Tree) error { return t.ScaleSelfWeight(target, factor) },
				Record: &changelog.Change{ID: changeID,
					Title:       "regress " + target + " under its enclosing stages",
					Subroutines: []string{target}},
			})
			return svc, []Label{{
				Scenario: name, Class: ClassDuplicate, Service: name,
				Entities: pathEntities(tree, target),
				Onset:    at, Magnitude: delta, Expect: true,
				ChangeID: changeID, AffectedSeries: len(emit),
			}}, nil
		}}
}

// TransientIssue schedules a production issue (load spike, maintenance,
// rolling update, ...) of the given duration; the issue perturbs the
// service-level metrics and fully recovers, so the went-away detector must
// suppress it.
func TransientIssue(name, slug string, typ fleet.IssueType, onset, dur time.Duration) Scenario {
	return Scenario{Name: name, Class: ClassTransient,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			tree, target, err := scenarioTree(slug, 2)
			if err != nil {
				return nil, nil, err
			}
			svc, err := fleet.NewService(baseService(name, env, tree, fleetScale, []string{target}))
			if err != nil {
				return nil, nil, err
			}
			at := env.Start.Add(onset)
			svc.ScheduleIssue(fleet.DefaultIssue(typ, at, dur))
			return svc, []Label{{
				Scenario: name, Class: ClassTransient, Service: name,
				Onset: at, Expect: false,
			}}, nil
		}}
}

// TransientGCPU injects a gCPU step that reverts after dur — a transient
// in the subroutine domain (a bad deploy rolled back), which the
// went-away detector must also suppress.
func TransientGCPU(name, slug string, delta float64, onset, dur time.Duration) Scenario {
	return Scenario{Name: name, Class: ClassTransient,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			tree, target, err := scenarioTree(slug, 2)
			if err != nil {
				return nil, nil, err
			}
			factor, err := scaleForDelta(tree, target, delta)
			if err != nil {
				return nil, nil, err
			}
			svc, err := fleet.NewService(baseService(name, env, tree, fleetScale, []string{target}))
			if err != nil {
				return nil, nil, err
			}
			at := env.Start.Add(onset)
			svc.ScheduleChange(fleet.ScheduledChange{At: at,
				Effect: func(t *fleet.Tree) error { return t.ScaleSelfWeight(target, factor) }})
			svc.ScheduleChange(fleet.ScheduledChange{At: at.Add(dur),
				Effect: func(t *fleet.Tree) error { return t.ScaleSelfWeight(target, 1/factor) }})
			return svc, []Label{{
				Scenario: name, Class: ClassTransient, Service: name,
				Onset: at, Expect: false,
			}}, nil
		}}
}

// CostShift moves self weight between two subroutines of the same class
// at onset — total cost is unchanged, so cost-shift analysis over the
// class (and commit) domains must suppress the apparent regression in the
// receiving subroutine (paper Figure 1(b)).
func CostShift(name, slug string, amount float64, onset time.Duration) Scenario {
	return Scenario{Name: name, Class: ClassCostShift,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			donor := &fleet.Node{Name: slug + "cacheget", Class: slug + "Cache", SelfWeight: 1.6}
			recipient := &fleet.Node{Name: slug + "cacheput", Class: slug + "Cache", SelfWeight: 0.9}
			root := &fleet.Node{Name: slug + "main", SelfWeight: 2, Children: []*fleet.Node{
				{Name: slug + "outer", SelfWeight: 46, Children: []*fleet.Node{donor, recipient}},
				{Name: slug + "steady", SelfWeight: 49.5},
			}}
			tree, err := fleet.NewTree(root)
			if err != nil {
				return nil, nil, err
			}
			shift := amount * tree.TotalWeight()
			svc, err := fleet.NewService(baseService(name, env, tree, fleetScale,
				[]string{donor.Name, recipient.Name}))
			if err != nil {
				return nil, nil, err
			}
			at := env.Start.Add(onset)
			svc.ScheduleChange(fleet.ScheduledChange{
				At:     at,
				Effect: func(t *fleet.Tree) error { return t.ShiftWeight(donor.Name, recipient.Name, shift) },
				Record: &changelog.Change{ID: name + "-refactor",
					Title:       "move work from " + donor.Name + " into " + recipient.Name,
					Subroutines: []string{donor.Name, recipient.Name}},
			})
			return svc, []Label{{
				Scenario: name, Class: ClassCostShift, Service: name,
				Onset: at, Expect: false,
			}}, nil
		}}
}

// Seasonal runs a service with a pronounced diurnal pattern and no
// injected change; the STL-based seasonality filter must keep its rising
// phases out of the reports.
func Seasonal(name, slug string, amp float64, period time.Duration) Scenario {
	return Scenario{Name: name, Class: ClassSeasonal,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			tree, target, err := scenarioTree(slug, 2)
			if err != nil {
				return nil, nil, err
			}
			cfg := baseService(name, env, tree, fleetScale, []string{target})
			cfg.SeasonalAmp = amp
			cfg.SeasonalPeriod = period
			svc, err := fleet.NewService(cfg)
			if err != nil {
				return nil, nil, err
			}
			return svc, []Label{{
				Scenario: name, Class: ClassSeasonal, Service: name,
				Onset: env.Start, Expect: false,
			}}, nil
		}}
}

// Control is a clean service with nothing injected; any report on it is a
// false positive.
func Control(name, slug string) Scenario {
	return Scenario{Name: name, Class: ClassControl,
		Build: func(env Env) (*fleet.Service, []Label, error) {
			tree, target, err := scenarioTree(slug, 2)
			if err != nil {
				return nil, nil, err
			}
			svc, err := fleet.NewService(baseService(name, env, tree, fleetScale, []string{target}))
			if err != nil {
				return nil, nil, err
			}
			return svc, []Label{{
				Scenario: name, Class: ClassControl, Service: name,
				Onset: env.Start, Expect: false,
			}}, nil
		}}
}

// DefaultScenarios is the standard labeled workload: injected step
// regressions swept across magnitude (0.002%-1% gCPU), subroutine depth,
// and onset time, plus the four labeled-negative families. Onsets are
// staggered so concurrent scenarios cannot merge in cross-service
// deduplication.
func DefaultScenarios() []Scenario {
	const m = time.Minute
	return []Scenario{
		// Magnitude sweep at fleet scale, mid-window onset, depth 3.
		StepRegression("reg-0.002pct", "alder", 0.00002, 3, 780*m, fleetScale),
		StepRegression("reg-0.005pct", "birch", 0.00005, 3, 793*m, fleetScale),
		StepRegression("reg-0.02pct", "cedar", 0.0002, 3, 806*m, fleetScale),
		StepRegression("reg-0.05pct", "doyen", 0.0005, 3, 819*m, fleetScale),
		StepRegression("reg-0.2pct", "ember", 0.002, 3, 832*m, fleetScale),
		StepRegression("reg-1pct", "fjord", 0.01, 3, 845*m, fleetScale),
		// Below fleet scale the smallest magnitudes sit inside the noise
		// floor; these two chart the detection floor from the labeled side.
		StepRegression("reg-0.005pct-smallfleet", "gable", 0.00005, 3, 858*m, 1e6),
		StepRegression("reg-0.2pct-smallfleet", "heron", 0.002, 3, 871*m, 1e6),
		// Subroutine depth sweep.
		StepRegression("reg-depth1", "ivory", 0.001, 1, 884*m, fleetScale),
		StepRegression("reg-depth2", "jumbo", 0.001, 2, 897*m, fleetScale),
		// Onset sweep: just after warmup, and late in the run.
		StepRegression("reg-early", "kudos", 0.001, 3, 700*m, fleetScale),
		StepRegression("reg-late", "lemur", 0.001, 3, 950*m, fleetScale),
		// One underlying event moving several series at once.
		CorrelatedDuplicates("dup-chain", "maple", 0.002, 760*m),
		CorrelatedDuplicates("dup-chain-late", "nylon", 0.004, 910*m),
		// Labeled negatives.
		TransientIssue("transient-loadspike", "ochre", fleet.LoadSpike, 770*m, 45*m),
		TransientIssue("transient-maintenance", "piano", fleet.Maintenance, 810*m, 40*m),
		TransientIssue("transient-rollout", "quill", fleet.RollingUpdate, 860*m, 45*m),
		TransientGCPU("transient-gcpu-small", "rosin", 0.001, 790*m, 40*m),
		TransientGCPU("transient-gcpu-large", "sable", 0.005, 840*m, 45*m),
		CostShift("costshift-cache", "tulip", 0.004, 800*m),
		CostShift("costshift-cache-large", "umbra", 0.008, 870*m),
		// Periods short enough that the 660-minute full window holds several
		// complete cycles, which the STL period detector needs.
		Seasonal("seasonal-2h", "vigor", 0.08, 2*time.Hour),
		Seasonal("seasonal-90m", "wharf", 0.1, 90*time.Minute),
		Control("control-a", "xenon"),
		Control("control-b", "yucca"),
		// Population mix shifts: aggregates move, per-stratum behavior does
		// not. Pure shifts must come out as population-shift verdicts...
		PopulationMixShift("popshift-rollout", "zesty", generationRollout(1.3), 707*m, 90*m),
		PopulationMixShift("popshift-failover", "onyx", regionalFailover, 721*m, 0),
		PopulationMixShift("popshift-migration", "topaz", classMigration, 917*m, 60*m),
		PopulationMixShift("popshift-rollout-steep", "raven", generationRollout(1.5), 735*m, 120*m),
		PopulationMixShift("popshift-multiway", "sepia", multiwayRebalance, 929*m, 0),
		// ...while a real regression riding on a shift must still report:
		// simultaneous onset (hardest), then staggered. The staggered
		// shift's ramp ends before minute 760 so no 200-minute analysis
		// window straddles both the ramp and the late regression.
		MixShiftWithRegression("popshift-with-regression", "wren", regionalFailover,
			748*m, 0, 0.001, 748*m),
		MixShiftWithRegression("popshift-then-regression", "coral", generationRollout(1.35),
			685*m, 60*m, 0.001, 926*m),
	}
}
