package popshift

import (
	"math"
	"math/rand"
	"testing"
)

// randomStats draws a random stratification: 2–6 strata with random
// pre/post mixes (Dirichlet-ish via normalized exponentials, forced to
// actually move) and random per-stratum means in (0.05, 0.95), plus
// tight variance estimates so the bias test has power.
func randomStats(rng *rand.Rand) []StratumStat {
	n := 2 + rng.Intn(5)
	stats := make([]StratumStat, n)
	var preTot, postTot float64
	for i := range stats {
		stats[i].PreWeight = rng.ExpFloat64() + 1e-3
		stats[i].PostWeight = rng.ExpFloat64() + 1e-3
		preTot += stats[i].PreWeight
		postTot += stats[i].PostWeight
	}
	for i := range stats {
		stats[i].PreWeight /= preTot
		stats[i].PostWeight /= postTot
		m := 0.05 + 0.9*rng.Float64()
		stats[i].PreMean = m
		stats[i].PostMean = m
		stats[i].PreVar = 1e-8
		stats[i].PostVar = 1e-8
		stats[i].PreN = 200
		stats[i].PostN = 200
		stats[i].Stratum = Stratum{Gen: string(rune('a' + i))}
	}
	return stats
}

func mixChange(stats []StratumStat) float64 {
	var tv float64
	for _, s := range stats {
		tv += math.Abs(s.PostWeight-s.PreWeight) / 2
	}
	return tv
}

// TestPropertyPureCompositionAlwaysShift: for ANY random stratum
// weights and means, a pure composition change (identical per-stratum
// behavior) must always be classified as a population shift, provided
// the mix moved enough to be diagnosable at all.
func TestPropertyPureCompositionAlwaysShift(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tried := 0
	for i := 0; i < 2000; i++ {
		stats := randomStats(rng)
		if mixChange(stats) < minMixChange {
			continue // below the stage's own diagnosability floor
		}
		tried++
		// Any positive threshold: behavior is exactly zero.
		threshold := 1e-6 + rng.Float64()*0.1
		v := Diagnose(stats, threshold)
		if !v.IsShift {
			t.Fatalf("iter %d: pure composition not a shift (reason %q)\nstats: %+v\ndecomp: %+v",
				i, v.Reason, stats, v.Decomp)
		}
		if v.Decomp.BehaviorPre != 0 || v.Decomp.BehaviorPost != 0 {
			t.Fatalf("iter %d: behavior term nonzero on pure composition: %+v", i, v.Decomp)
		}
	}
	if tried < 1000 {
		t.Fatalf("generator degenerate: only %d diagnosable mixes out of 2000", tried)
	}
}

// TestPropertyUniformStepNeverShift: a uniform per-stratum step of
// magnitude at or above the detection threshold must never be
// classified as a population shift, no matter how the mix moved
// underneath it.
func TestPropertyUniformStepNeverShift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		stats := randomStats(rng)
		step := 0.01 + rng.Float64()*0.2
		if rng.Intn(2) == 0 {
			step = -step
		}
		for j := range stats {
			stats[j].PostMean = stats[j].PreMean + step
		}
		// Threshold strictly below the step so a correct decomposition
		// must refuse to suppress (BehaviorPre == step exactly, since
		// normalized pre weights sum to one).
		threshold := math.Abs(step) * (0.1 + 0.89*rng.Float64())
		v := Diagnose(stats, threshold)
		if v.IsShift {
			t.Fatalf("iter %d: uniform step %v suppressed as shift\nstats: %+v\ndecomp: %+v",
				i, step, stats, v.Decomp)
		}
	}
}

// TestPropertyDecompositionExact: the three terms plus interaction must
// reconstruct the observed delta to floating-point accuracy for any
// random configuration — the algebra is an identity, not an estimate.
func TestPropertyDecompositionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		stats := randomStats(rng)
		for j := range stats {
			stats[j].PostMean = 0.05 + 0.9*rng.Float64() // independent behavior moves
		}
		d := Reweigh(stats)
		sum := d.Composition + d.BehaviorPre + d.Interaction
		if math.Abs(sum-d.Observed) > 1e-12 {
			t.Fatalf("iter %d: decomposition not exact: %v vs %v (%+v)", i, sum, d.Observed, d)
		}
		// The symmetric identity: Σ Δw·m_post + BehaviorPre also
		// reconstructs (Δw·m' + w·Δm = w'm' − wm term by term).
		var compPost float64
		var preTot, postTot float64
		for _, s := range stats {
			preTot += s.PreWeight
			postTot += s.PostWeight
		}
		for _, s := range stats {
			compPost += (s.PostWeight/postTot - s.PreWeight/preTot) * s.PostMean
		}
		if math.Abs(compPost+d.BehaviorPre-d.Observed) > 1e-12 {
			t.Fatalf("iter %d: post-mix identity broken: %v vs %v", i, compPost+d.BehaviorPre, d.Observed)
		}
	}
}
