package core

import (
	"math"
	"time"

	"fbdetect/internal/popshift"
	"fbdetect/internal/tsdb"
)

// PopulationShift records one candidate regression reclassified as a
// population mix-shift: the delta was explained by WHO is measured
// changing (generation rollout, regional failover, traffic migration),
// not by per-stratum behavior moving.
type PopulationShift struct {
	Metric  tsdb.MetricID
	Service string
	Entity  string
	Name    string

	ChangePointTime time.Time
	// Before/After/Delta/Relative mirror the suppressed candidate.
	Before, After float64
	Delta         float64
	Relative      float64

	// Verdict carries the decomposition and the diagnosis reason.
	Verdict popshift.Verdict

	// DetectedAt is the scan time at which the shift was diagnosed.
	DetectedAt time.Time
}

// alertableMetrics lists the service's metrics that detection should
// scan. With the pop-shift stage enabled, stratum-tagged per-population
// series and the reserved population-weight series are diagnostic
// inputs, not alert surfaces — a generation rollout would otherwise
// fire a change point on every stratum weight series it ramps. With the
// stage disabled the listing is exactly the store's, keeping the
// pipeline byte-identical to builds without the stage.
func (p *Pipeline) alertableMetrics(service string) []tsdb.MetricID {
	metrics := p.db.Metrics(service)
	if !p.cfg.PopShift.Enabled {
		return metrics
	}
	out := metrics[:0]
	for _, id := range metrics {
		_, entity, name := id.Parts()
		if name == popshift.WeightMetric {
			continue
		}
		if _, _, tagged := popshift.ParseEntity(entity); tagged {
			continue
		}
		out = append(out, id)
	}
	return out
}

// windowMoments computes mean, sample variance, and count of a series
// over [from, to). Queries that fail or return no points yield ok=false.
func windowMoments(db *tsdb.DB, id tsdb.MetricID, from, to time.Time) (mean, variance float64, n int, ok bool) {
	s, err := db.Query(id, from, to)
	if err != nil || s.Len() == 0 {
		return 0, 0, 0, false
	}
	for _, v := range s.Values {
		mean += v
	}
	n = s.Len()
	mean /= float64(n)
	if n > 1 {
		for _, v := range s.Values {
			d := v - mean
			variance += d * d
		}
		variance /= float64(n - 1)
	}
	return mean, variance, n, true
}

// checkPopShift diagnoses one surviving candidate against the service's
// population strata. It returns a non-nil PopulationShift when the
// candidate's delta is explained by the mix change, nil when the stage
// abstains or the bias test says the behavior moved.
//
// Evidence is gathered from two series families sharing the candidate's
// service: per-stratum metric series (entity "<base>@gen=..;region=..;
// class=..", same metric name) provide pre/post means and variances,
// and the reserved "popweight" series (entity "@<suffix>") provide the
// pre/post population mix. A stratum participates only when both are
// present — without a weight the re-weighting has nothing to anchor on.
func (p *Pipeline) checkPopShift(r *Regression, scanTime time.Time) *PopulationShift {
	span := p.cfg.Windows.Analysis
	cp := r.ChangePointTime
	preFrom := cp.Add(-span)
	postTo := cp.Add(span)
	if postTo.After(scanTime) {
		postTo = scanTime
	}
	if !postTo.After(cp) {
		return nil
	}

	type cell struct {
		stat      popshift.StratumStat
		hasWeight bool
		hasSeries bool
	}
	cells := make(map[popshift.Stratum]*cell)
	at := func(st popshift.Stratum) *cell {
		c := cells[st]
		if c == nil {
			c = &cell{stat: popshift.StratumStat{Stratum: st}}
			cells[st] = c
		}
		return c
	}
	for _, id := range p.db.Metrics(r.Service) {
		_, entity, name := id.Parts()
		base, st, tagged := popshift.ParseEntity(entity)
		if !tagged {
			continue
		}
		switch {
		case name == popshift.WeightMetric && base == "":
			preW, _, _, okPre := windowMoments(p.db, id, preFrom, cp)
			postW, _, _, okPost := windowMoments(p.db, id, cp, postTo)
			if !okPre && !okPost {
				continue
			}
			c := at(st)
			c.stat.PreWeight = preW
			c.stat.PostWeight = postW
			c.hasWeight = true
		case name == r.Name && base == r.Entity:
			preM, preV, preN, okPre := windowMoments(p.db, id, preFrom, cp)
			postM, postV, postN, okPost := windowMoments(p.db, id, cp, postTo)
			if !okPre || !okPost {
				continue
			}
			c := at(st)
			c.stat.PreMean, c.stat.PreVar, c.stat.PreN = preM, preV, preN
			c.stat.PostMean, c.stat.PostVar, c.stat.PostN = postM, postV, postN
			c.hasSeries = true
		}
	}

	var stats []popshift.StratumStat
	strata := make([]popshift.Stratum, 0, len(cells))
	for st := range cells {
		strata = append(strata, st)
	}
	popshift.SortStrata(strata)
	for _, st := range strata {
		if c := cells[st]; c.hasWeight && c.hasSeries {
			stats = append(stats, c.stat)
		}
	}
	cfg := popshift.Config{}.WithDefaults()
	if len(stats) < cfg.MinStrata {
		return nil
	}

	// The metric's own detection threshold is the bar the behavior term
	// must stay under; relative thresholds convert via the candidate's
	// pre-change mean.
	threshold, relative := ThresholdFor(p.cfg, r.Name)
	if relative {
		threshold *= math.Abs(r.Before)
	}
	v := popshift.Diagnose(stats, threshold, cfg)
	if !v.IsShift {
		return nil
	}
	return &PopulationShift{
		Metric:          r.Metric,
		Service:         r.Service,
		Entity:          r.Entity,
		Name:            r.Name,
		ChangePointTime: r.ChangePointTime,
		Before:          r.Before,
		After:           r.After,
		Delta:           r.Delta,
		Relative:        r.Relative,
		Verdict:         v,
		DetectedAt:      scanTime,
	}
}
