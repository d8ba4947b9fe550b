package core

import "strings"

// stage is one row of the pipeline table. finalizeService runs the rows
// that have a run function, in order; Funnel.Add and recordFunnel walk
// every row, so a stage's name, funnel field and place are written once.
type stage struct {
	name string // Stage* label of its span, latency histogram and in/out counters; "" for none
	// count is the Funnel field of the survivors; nil: the out is the in.
	count func(*Funnel) *int
	// source starts a detection path: its in is the metrics scanned.
	source bool
	// enabled reports whether the stage runs (nil: always). A disabled
	// source examines nothing; a disabled filter passes its input on.
	enabled func(*Pipeline) bool
	// commit marks the first stage to write cross-scan state (the merger's
	// memory). The context is honoured only before it: stopped after it, a
	// scan would leave candidates recorded as seen but never reported. The
	// scan ends there when nothing is fresh.
	commit bool
	// run maps a scan's candidates to the survivors; nil for the
	// per-series stages, which detectMetric runs.
	run func(*Pipeline, *serviceDetect, []*Regression) []*Regression
}

// stages is the pipeline in execution order: the per-series detection
// stages, then the scan-level stages 4-9.
var stages = [...]stage{
	{name: StageChangePoint, count: func(f *Funnel) *int { return &f.ChangePoints }, source: true},
	{name: StageWentAway, count: func(f *Funnel) *int { return &f.AfterWentAway }},
	{name: StageSeasonality, count: func(f *Funnel) *int { return &f.AfterSeasonality }},
	{name: StageLongTerm, count: func(f *Funnel) *int { return &f.LongTermChangePoints }, source: true,
		enabled: func(p *Pipeline) bool { return p.cfg.LongTerm }},
	{name: StageThreshold, count: func(f *Funnel) *int { return &f.AfterThreshold }, run: (*Pipeline).passThreshold},
	{name: StageSameMerger, count: func(f *Funnel) *int { return &f.AfterSameMerger }, commit: true, run: (*Pipeline).dropSeen},
	{run: (*Pipeline).gatherSamples},
	{name: StageSOMDedup, count: func(f *Funnel) *int { return &f.AfterSOMDedup }, run: (*Pipeline).somRepresentatives},
	{name: StagePopShift, count: func(f *Funnel) *int { return &f.AfterPopShift },
		enabled: func(p *Pipeline) bool { return p.cfg.PopShift.Enabled }, run: (*Pipeline).dropPopShifts},
	{name: StageCostShift, count: func(f *Funnel) *int { return &f.AfterCostShift }, run: (*Pipeline).dropCostShifts},
	{name: StagePairwise, count: func(f *Funnel) *int { return &f.AfterPairwise }, run: (*Pipeline).dropMerged},
	{name: StageRootCause, run: (*Pipeline).analyzeRootCauses},
}

// runStage runs one scan-level stage inside its span and latency
// observation; a step without a name gets neither. The hooks are
// nil-safe, so an uninstrumented pipeline reads no clock.
func (p *Pipeline) runStage(st *stage, d *serviceDetect, in []*Regression) []*Regression {
	if st.name == "" {
		return st.run(p, d, in)
	}
	span := d.trace.StartSpan(st.name, d.root)
	start := p.obs.timed()
	out := st.run(p, d, in)
	p.obs.observe(st.name, start)
	span.Finish()
	return out
}

// filter returns the candidates keep accepts, in order; nil for none.
func filter(in []*Regression, keep func(*Regression) bool) []*Regression {
	var out []*Regression
	for _, r := range in {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// passThreshold is stage 4. Long-term candidates threshold themselves;
// re-checking them is harmless and keeps the funnel uniform.
func (p *Pipeline) passThreshold(_ *serviceDetect, in []*Regression) []*Regression {
	return filter(in, func(r *Regression) bool { return PassesThreshold(p.cfg, r) })
}

// dropSeen is stage 5, the SameRegressionMerger; it records what it keeps.
func (p *Pipeline) dropSeen(_ *serviceDetect, in []*Regression) []*Regression {
	return filter(in, func(r *Regression) bool { return !p.merger.IsDuplicate(r) })
}

// gatherSamples fetches the sample sets around the first fresh change
// point once per scan (SOM features, cost shift and root cause read
// them) and prefills candidate root causes with the cheap
// subroutine-touch search, so SOMDedup's bitmap feature is available
// (§5.5.1). A step, not a stage: it opens its own span, counts nothing.
func (p *Pipeline) gatherSamples(d *serviceDetect, fresh []*Regression) []*Regression {
	span := d.trace.StartSpan("samples", d.root)
	defer span.Finish()
	if p.samples != nil {
		window := p.cfg.Windows.Analysis
		cp := fresh[0].ChangePointTime
		d.before = p.samples.SamplesBetween(d.service, cp.Add(-window), cp)
		afterEnd := cp.Add(window)
		if afterEnd.After(d.scanTime) {
			afterEnd = d.scanTime
		}
		d.after = p.samples.SamplesBetween(d.service, cp, afterEnd)
		d.popularity = d.before.GCPUAll()
	}
	if p.log != nil {
		lookback := p.cfg.RootCause.Lookback
		for _, r := range fresh {
			if r.Entity == "" {
				continue
			}
			for _, c := range p.log.TouchingSubroutine(d.service, r.Entity,
				r.ChangePointTime.Add(-lookback), r.ChangePointTime.Add(lookback/4)) {
				r.RootCauses = append(r.RootCauses, RootCauseCandidate{ChangeID: c.ID})
			}
		}
	}
	return fresh
}

// somRepresentatives is stage 6, SOMDedup: one candidate per cluster.
func (p *Pipeline) somRepresentatives(d *serviceDetect, fresh []*Regression) []*Regression {
	var reps []*Regression
	for _, i := range SOMDedup(p.cfg.Dedup, fresh, d.popularity).Representatives {
		reps = append(reps, fresh[i])
	}
	return reps
}

// dropPopShifts is stage 6b: a candidate whose delta the population mix
// explains (internal/popshift) becomes a population-shift verdict, not a
// report. It precedes cost shift, which would otherwise claim a mix
// delta — the mix never shows in stack samples — without a verdict. A
// suppressed candidate is forgotten by the merger, so it cannot mask a
// later genuine regression on the same series.
func (p *Pipeline) dropPopShifts(d *serviceDetect, in []*Regression) []*Regression {
	out := filter(in, func(r *Regression) bool {
		ps := p.checkPopShift(r, d.scanTime)
		if ps == nil {
			return true
		}
		d.res.PopulationShifts = append(d.res.PopulationShifts, ps)
		p.merger.Forget(r)
		return false
	})
	p.obs.popShiftSuppressed(len(d.res.PopulationShifts))
	return out
}

// dropCostShifts is stage 7: stack-sample domains for gCPU regressions,
// the endpoint-prefix domain for endpoint ones. A suppressed candidate is
// forgotten by the merger, as in stage 6b.
func (p *Pipeline) dropCostShifts(d *serviceDetect, in []*Regression) []*Regression {
	return filter(in, func(r *Regression) bool {
		shifted := r.Name == "gcpu" && d.before != nil && d.after != nil &&
			CheckCostShift(p.cfg.CostShift, p.domains, r, d.before, d.after).IsCostShift
		if !shifted && strings.HasPrefix(r.Entity, "endpoint:") {
			shifted = CheckEndpointCostShift(p.cfg.CostShift, p.db, r, p.cfg.Windows, d.scanTime).IsCostShift
		}
		if shifted {
			p.merger.Forget(r)
		}
		return !shifted
	})
}

// dropMerged is stage 8, PairwiseDedup: what joins no existing group is
// newly reported.
func (p *Pipeline) dropMerged(d *serviceDetect, in []*Regression) []*Regression {
	p.pairwise.samples = d.after
	return filter(in, func(r *Regression) bool {
		_, merged := p.pairwise.Merge(r)
		return !merged
	})
}

// analyzeRootCauses is stage 9: scored root causes replace the prefill.
func (p *Pipeline) analyzeRootCauses(d *serviceDetect, reported []*Regression) []*Regression {
	for _, r := range reported {
		r.DetectedAt = d.scanTime
		r.RootCauses = nil
		AnalyzeRootCause(p.cfg.RootCause, p.log, r, d.before, d.after)
	}
	return reported
}
