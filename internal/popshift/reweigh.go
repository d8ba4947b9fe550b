package popshift

import "math"

// StratumStat carries the per-stratum evidence for one candidate
// regression: the population weight and metric mean in the pre- and
// post-change windows, plus sample variance/count for the bias test.
type StratumStat struct {
	Stratum Stratum

	PreWeight  float64 // population fraction before the change point
	PostWeight float64 // population fraction after the change point
	PreMean    float64 // per-stratum metric mean before
	PostMean   float64 // per-stratum metric mean after
	PreVar     float64 // sample variance before (0 if unknown)
	PostVar    float64 // sample variance after (0 if unknown)
	PreN       int     // samples before (0 if unknown)
	PostN      int     // samples after (0 if unknown)
}

// Decomposition is the Oaxaca–Blinder split of an observed metric delta
// into mix-driven and behavior-driven parts:
//
//	Observed = Σ w_post·m_post − Σ w_pre·m_pre
//	         = Composition + BehaviorPre + Interaction
//
// with Composition = Σ Δw·m_pre (what the delta would have been had
// per-stratum behavior stayed fixed), BehaviorPre = Σ w_pre·Δm (the
// behavior change re-weighted to the PRE mix), and Interaction =
// Σ Δw·Δm. BehaviorPost = Σ w_post·Δm is the symmetric re-weighting to
// the post mix; a real code regression moves both, a pure mix change
// moves neither.
type Decomposition struct {
	Observed     float64 // Σw_post·m_post − Σw_pre·m_pre
	Composition  float64 // Σ(Δw)·m_pre — explained by the mix moving
	BehaviorPre  float64 // Σw_pre·(Δm) — behavior change at the pre mix
	BehaviorPost float64 // Σw_post·(Δm) — behavior change at the post mix
	Interaction  float64 // Σ(Δw)·(Δm)
	MixChange    float64 // total-variation distance ½Σ|Δw| in [0,1]
	SE           float64 // standard error of BehaviorPre (0 if unknown)
	Strata       int     // strata contributing to the decomposition
}

// Reweigh computes the decomposition from per-stratum statistics.
// Weights are normalized within each window, so callers may pass raw
// server counts or fractions that do not sum exactly to one. Strata
// with zero weight in BOTH windows are ignored; a stratum present in
// only one window participates with weight zero in the other (its
// appearance/disappearance is itself a mix change).
func Reweigh(stats []StratumStat) Decomposition {
	var preTot, postTot float64
	for _, st := range stats {
		if st.PreWeight > 0 {
			preTot += st.PreWeight
		}
		if st.PostWeight > 0 {
			postTot += st.PostWeight
		}
	}
	var d Decomposition
	for _, st := range stats {
		wPre, wPost := 0.0, 0.0
		if preTot > 0 && st.PreWeight > 0 {
			wPre = st.PreWeight / preTot
		}
		if postTot > 0 && st.PostWeight > 0 {
			wPost = st.PostWeight / postTot
		}
		if wPre == 0 && wPost == 0 {
			continue
		}
		d.Strata++
		dw := wPost - wPre
		dm := st.PostMean - st.PreMean
		d.Observed += wPost*st.PostMean - wPre*st.PreMean
		d.Composition += dw * st.PreMean
		d.BehaviorPre += wPre * dm
		d.BehaviorPost += wPost * dm
		d.Interaction += dw * dm
		d.MixChange += math.Abs(dw) / 2
		// Variance of Σ w_pre·(m_post − m_pre) treating strata as
		// independent: Σ w_pre²·(Var_pre/n_pre + Var_post/n_post).
		if wPre > 0 {
			var v float64
			if st.PreN > 0 && st.PreVar > 0 {
				v += st.PreVar / float64(st.PreN)
			}
			if st.PostN > 0 && st.PostVar > 0 {
				v += st.PostVar / float64(st.PostN)
			}
			d.SE += wPre * wPre * v
		}
	}
	d.SE = math.Sqrt(d.SE)
	return d
}

// The composition-vs-behavior decision's fixed parameters.
const (
	// minStrata is the minimum number of observed strata required to
	// attempt a diagnosis; with fewer the stage abstains (a candidate
	// cannot be "explained by mix" without a mix).
	minStrata = 2
	// minMixChange is the minimum total-variation distance between the
	// pre and post mixes for a shift verdict; below it the population
	// barely moved and the delta must be behavior.
	minMixChange = 0.02
	// zThreshold is the bias-test multiplier: when the behavior term
	// exceeds zThreshold standard errors it is statistically
	// distinguishable from zero and the verdict is behavior even if the
	// term is below the metric threshold.
	zThreshold = 3
)

// Verdict is the outcome of diagnosing one candidate regression.
type Verdict struct {
	// IsShift is true when the observed delta is explained by the mix
	// change: the behavior term is below the detection threshold and
	// statistically indistinguishable from zero.
	IsShift bool
	// Reason is a short human-readable explanation of the decision.
	Reason string
	// Decomp is the underlying decomposition.
	Decomp Decomposition
}

// Diagnose applies the bias test: a candidate is a population shift iff
// enough strata were observed, the mix actually moved, and the behavior
// term (under BOTH the pre and post mixes — a real regression moves
// both) stays below the metric's own detection threshold and within
// zThreshold standard errors of zero. threshold is in the metric's
// units (callers convert relative thresholds using the pre-window
// mean).
func Diagnose(stats []StratumStat, threshold float64) Verdict {
	d := Reweigh(stats)
	v := Verdict{Decomp: d}
	behaviorMax := math.Max(math.Abs(d.BehaviorPre), math.Abs(d.BehaviorPost))
	switch {
	case d.Strata < minStrata:
		v.Reason = "too few strata observed"
	case d.MixChange < minMixChange:
		v.Reason = "population mix did not move"
	case threshold > 0 && behaviorMax >= threshold:
		v.Reason = "behavior term exceeds detection threshold"
	case d.SE > 0 && behaviorMax > zThreshold*d.SE:
		v.Reason = "behavior term significant under bias test"
	default:
		v.IsShift = true
		v.Reason = "delta explained by population mix change"
	}
	return v
}
