package core

import (
	"math"
	"sort"
	"time"

	"fbdetect/internal/som"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/stats"
	"fbdetect/internal/textsim"
)

// SameRegressionMerger deduplicates the same regression showing up in
// multiple overlapping analysis windows across successive scans (Table 3's
// "SameRegressionMerger" row). It remembers (metric, change-point time)
// pairs and drops re-detections whose change point falls within
// sameRegressionWindow of an already-reported one.
type SameRegressionMerger struct {
	seen map[string][]time.Time // metric -> reported change points
}

// sameRegressionWindow is how close two change points of one metric must
// be for the merger to treat them as one regression.
const sameRegressionWindow = 6 * time.Hour

// NewSameRegressionMerger returns a merger with no reported regressions.
func NewSameRegressionMerger() *SameRegressionMerger {
	return &SameRegressionMerger{seen: map[string][]time.Time{}}
}

// IsDuplicate reports whether r duplicates an already-reported regression
// and, if not, records it.
func (m *SameRegressionMerger) IsDuplicate(r *Regression) bool {
	key := string(r.Metric)
	for _, t := range m.seen[key] {
		d := r.ChangePointTime.Sub(t)
		if d < 0 {
			d = -d
		}
		if d <= sameRegressionWindow {
			return true
		}
	}
	m.seen[key] = append(m.seen[key], r.ChangePointTime)
	return false
}

// Forget removes the regression's recorded change point from the merger's
// memory. The pop-shift stage calls it for candidates it reclassifies as
// population shifts: a suppressed mix-shift candidate must not keep
// masking a later genuine regression whose change point lands within the
// proximity window on the same series.
func (m *SameRegressionMerger) Forget(r *Regression) {
	key := string(r.Metric)
	seen := m.seen[key]
	for i, t := range seen {
		if t.Equal(r.ChangePointTime) {
			m.seen[key] = append(seen[:i], seen[i+1:]...)
			if len(m.seen[key]) == 0 {
				delete(m.seen, key)
			}
			return
		}
	}
}

// ImportanceScore ranks a regression for selection as its group's
// representative (paper §5.5.1):
//
//	w1*RelativeCostChange + w2*AbsoluteCostChange +
//	w3*(1-PopularityScore) + w4*PotentialRootCauseFound
//
// popularity is the probability of the subroutine appearing in a random
// stack sample (its gCPU); pass 0 when unknown. The relative and absolute
// changes are squashed into [0, 1) so the weights compose.
func ImportanceScore(weights [4]float64, r *Regression, popularity float64) float64 {
	rel := squash(r.Relative)
	abs := squash(r.Delta * 100) // scale: a 1% absolute change ~ 0.5
	rootCause := 0.0
	if len(r.RootCauses) > 0 {
		rootCause = 1
	}
	return weights[0]*rel + weights[1]*abs + weights[2]*(1-popularity) + weights[3]*rootCause
}

func squash(x float64) float64 {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1
	}
	return x / (1 + x)
}

// somFeatures builds the SOMDedup feature vector for a regression (paper
// §5.5.1): time-series shape features (variance, change-point position,
// dominant Fourier-style lag), the magnitude, the metric-ID TF-IDF hash,
// and the candidate-root-cause bitmap.
func somFeatures(r *Regression, corpus *textsim.Corpus, changeIndex map[string]int, numChanges int) []float64 {
	analysis := r.Windows.Analysis.Values
	_, variance := stats.MeanVariance(analysis)
	cpPos := 0.0
	if len(analysis) > 0 {
		cpPos = float64(r.ChangePoint) / float64(len(analysis))
	}
	lag, corr := stats.DominantSeasonLag(analysis, 2, len(analysis)/2)
	lagNorm := 0.0
	if len(analysis) > 0 {
		lagNorm = float64(lag) / float64(len(analysis))
	}
	hash := float64(corpus.Hash(string(r.Metric))%4096) / 4096

	// Candidate root causes as a compact bitmap folded into 8 dims.
	bitmap := make([]float64, 8)
	for _, rc := range r.RootCauses {
		if i, ok := changeIndex[rc.ChangeID]; ok && numChanges > 0 {
			bitmap[i%8] = 1
		}
	}

	feats := []float64{
		squash(r.Relative) * 4,
		squash(r.Delta*100) * 4,
		variance * 100,
		cpPos,
		lagNorm,
		corr,
		hash * 8, // metric-ID feature dominates, as related metrics share causes
	}
	return append(feats, bitmap...)
}

// SOMDedupResult groups regressions and selects representatives.
type SOMDedupResult struct {
	// Groups holds index lists into the input slice.
	Groups [][]int
	// Representatives holds, per group, the index of the highest
	// ImportanceScore member.
	Representatives []int
}

// importanceWeights are the w1..w4 of the ImportanceScore SOMDedup picks
// representatives by.
var importanceWeights = [4]float64{0.2, 0.6, 0.1, 0.1}

// SOMDedup clusters regressions of the same metric type within one
// analysis window using a self-organizing map and picks each group's
// representative by ImportanceScore (paper §5.5.1). popularity maps
// entity name to its gCPU (may be nil).
func SOMDedup(cfg DedupConfig, regressions []*Regression, popularity map[string]float64) SOMDedupResult {
	n := len(regressions)
	if n == 0 {
		return SOMDedupResult{}
	}
	if n == 1 {
		return SOMDedupResult{Groups: [][]int{{0}}, Representatives: []int{0}}
	}
	corpus := textsim.NewCorpus()
	changeIndex := map[string]int{}
	for _, r := range regressions {
		corpus.Add(string(r.Metric))
		for _, rc := range r.RootCauses {
			if _, ok := changeIndex[rc.ChangeID]; !ok {
				changeIndex[rc.ChangeID] = len(changeIndex)
			}
		}
	}
	vectors := make([][]float64, n)
	for i, r := range regressions {
		vectors[i] = somFeatures(r, corpus, changeIndex, len(changeIndex))
	}
	groups, err := som.Cluster(vectors, som.Options{Seed: cfg.SOMSeed})
	if err != nil {
		// Clustering cannot fail for consistent vectors; degrade to one
		// group per regression.
		groups = make([][]int, n)
		for i := range groups {
			groups[i] = []int{i}
		}
	}
	res := SOMDedupResult{Groups: groups}
	for gi, g := range groups {
		best, bestScore := g[0], math.Inf(-1)
		for _, i := range g {
			r := regressions[i]
			pop := popularity[r.Entity]
			if s := ImportanceScore(importanceWeights, r, pop); s > bestScore {
				best, bestScore = i, s
			}
			r.Group = gi
		}
		res.Representatives = append(res.Representatives, best)
	}
	return res
}

// RegressionGroup is a PairwiseDedup group of regressions believed to
// share a root cause, possibly spanning metrics and analysis windows.
type RegressionGroup struct {
	ID      int
	Members []*Regression
}

// PairwiseDeduper merges new representative regressions into existing
// groups by pairwise feature comparison (paper §5.5.2).
type PairwiseDeduper struct {
	groups  []*RegressionGroup
	samples *stacktrace.SampleSet // optional, for the stack-overlap feature
}

// NewPairwiseDeduper returns a deduper; samples may be nil, disabling the
// stack-trace-overlap feature.
func NewPairwiseDeduper(samples *stacktrace.SampleSet) *PairwiseDeduper {
	return &PairwiseDeduper{samples: samples}
}

// Groups returns the current groups.
func (p *PairwiseDeduper) Groups() []*RegressionGroup { return p.groups }

// pairwiseThreshold is the minimum combined similarity for Merge to put a
// regression into an existing group.
const pairwiseThreshold = 0.6

// Merge assigns r to the most similar existing group if its combined
// similarity reaches pairwiseThreshold, or creates a new group. It returns the
// group and whether r was merged into an existing one.
func (p *PairwiseDeduper) Merge(r *Regression) (*RegressionGroup, bool) {
	bestScore := 0.0
	var best *RegressionGroup
	for _, g := range p.groups {
		if s := p.similarity(r, g); s > bestScore {
			bestScore, best = s, g
		}
	}
	if best != nil && bestScore >= pairwiseThreshold {
		best.Members = append(best.Members, r)
		r.Group = best.ID
		return best, true
	}
	g := &RegressionGroup{ID: len(p.groups), Members: []*Regression{r}}
	r.Group = g.ID
	p.groups = append(p.groups, g)
	return g, false
}

// similarity combines the paper's features: maximal Pearson correlation of
// the analysis-window series, maximal metric-ID cosine similarity, and
// stack-trace overlap against the union of the group's entities.
func (p *PairwiseDeduper) similarity(r *Regression, g *RegressionGroup) float64 {
	var maxCorr, maxText, maxOverlap float64
	for _, m := range g.Members {
		if c := stats.Pearson(r.Windows.Analysis.Values, m.Windows.Analysis.Values); c > maxCorr {
			maxCorr = c
		}
		if t := textsim.TokenSimilarity(r.MetricText(), m.MetricText()); t > maxText {
			maxText = t
		}
		if p.samples != nil && r.Entity != "" && m.Entity != "" {
			if o := p.samples.SharedSampleFraction(r.Entity, m.Entity); o > maxOverlap {
				maxOverlap = o
			}
		}
	}
	// Shared root-cause candidates are a strong signal.
	rcBoost := 0.0
	for _, m := range g.Members {
		if sharesRootCause(r, m) {
			rcBoost = 0.3
			break
		}
	}
	score := 0.4*maxCorr + 0.3*maxText + 0.3*maxOverlap + rcBoost
	if score > 1 {
		score = 1
	}
	return score
}

func sharesRootCause(a, b *Regression) bool {
	if len(a.RootCauses) == 0 || len(b.RootCauses) == 0 {
		return false
	}
	set := map[string]bool{}
	for _, rc := range a.RootCauses {
		set[rc.ChangeID] = true
	}
	for _, rc := range b.RootCauses {
		if set[rc.ChangeID] {
			return true
		}
	}
	return false
}

// SortGroupsBySize orders groups largest first; reporting UIs list the
// biggest blast-radius groups at the top.
func SortGroupsBySize(groups []*RegressionGroup) {
	sort.SliceStable(groups, func(i, j int) bool {
		return len(groups[i].Members) > len(groups[j].Members)
	})
}
