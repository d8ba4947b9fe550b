package core

import (
	"sort"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/stats"
	"fbdetect/internal/textsim"
)

// rootCauseWeights weigh AnalyzeRootCause's three factors: attribution,
// text similarity and correlation.
var rootCauseWeights = [3]float64{0.6, 0.25, 0.15}

const (
	// rootCauseLookback is how far before the change point root-cause
	// analysis searches for candidate changes; it also searches a quarter
	// of it after.
	rootCauseLookback = 24 * time.Hour
	// rootCauseTopK is how many candidates it reports (the paper
	// evaluates top-3).
	rootCauseTopK = 3
)

// AnalyzeRootCause ranks candidate changes for a regression (paper §5.6)
// and fills r.RootCauses with the top-K candidates whose combined score
// clears the confidence bar. Candidates are the changes deployed to the
// service within the lookback window ending at the change point.
//
// Three factors are combined:
//
//   - Subroutine gCPU attribution (Table 2): the fraction L/R of the
//     regression magnitude flowing through stack samples that involve
//     subroutines the change modified. Only applies to gCPU regressions
//     with sample data.
//   - Text similarity between the regression context and the change text.
//   - Time-series correlation between a step indicator at the deploy time
//     and the analysis-window series.
func AnalyzeRootCause(cfg RootCauseConfig, log *changelog.Log, r *Regression,
	before, after *stacktrace.SampleSet) {
	cfg = cfg.withDefaults()
	if log == nil {
		return
	}
	from := r.ChangePointTime.Add(-rootCauseLookback)
	// Include changes deployed slightly after the estimated change point;
	// change-point estimates carry noise.
	to := r.ChangePointTime.Add(rootCauseLookback / 4)
	candidates := log.Between(r.Service, from, to)
	if len(candidates) == 0 {
		return
	}

	regressionText := r.MetricText()
	var scored []RootCauseCandidate
	for _, c := range candidates {
		cand := RootCauseCandidate{ChangeID: c.ID, Attribution: -1}
		cand.TextSimilarity = textsim.TokenSimilarity(regressionText, c.Text())
		cand.Correlation = deployCorrelation(r, c)
		if r.Name == "gcpu" && r.Entity != "" && before != nil && after != nil {
			cand.Attribution = gcpuAttribution(r, c, before, after)
		}
		attr := cand.Attribution
		if attr < 0 {
			attr = 0
		}
		cand.Score = rootCauseWeights[0]*attr + rootCauseWeights[1]*cand.TextSimilarity +
			rootCauseWeights[2]*cand.Correlation
		scored = append(scored, cand)
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].Score > scored[j].Score })
	if scored[0].Score < cfg.MinScore {
		return // not confident enough to suggest a root cause
	}
	if len(scored) > rootCauseTopK {
		scored = scored[:rootCauseTopK]
	}
	r.RootCauses = scored
}

// gcpuAttribution computes the Table 2 L/R factor: among samples
// containing the regressed subroutine, those also involving subroutines
// modified by the change account for L of the total regression magnitude
// R. The result is clamped to [0, 1].
func gcpuAttribution(r *Regression, c *changelog.Change, before, after *stacktrace.SampleSet) float64 {
	modified := c.ModifiedSet()
	if len(modified) == 0 {
		return 0
	}
	rMag := after.GCPU(r.Entity) - before.GCPU(r.Entity)
	if rMag <= 0 {
		return 0
	}
	l := after.GCPUIntersection(r.Entity, modified) - before.GCPUIntersection(r.Entity, modified)
	frac := l / rMag
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

// deployCorrelation correlates a 0/1 step indicator at the change's deploy
// time with the analysis-window series. A change deployed exactly at the
// regression's change point correlates strongly with the level shift.
func deployCorrelation(r *Regression, c *changelog.Change) float64 {
	analysis := r.Windows.Analysis
	n := analysis.Len()
	if n == 0 {
		return 0
	}
	deployIdx := analysis.IndexOf(c.DeployedAt)
	if deployIdx <= 0 || deployIdx >= n {
		return 0
	}
	indicator := make([]float64, n)
	for i := deployIdx; i < n; i++ {
		indicator[i] = 1
	}
	corr := stats.Pearson(indicator, analysis.Values)
	if corr < 0 {
		return 0
	}
	return corr
}
