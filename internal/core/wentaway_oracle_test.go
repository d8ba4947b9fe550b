package core

import (
	"math"
	"math/rand"
	"testing"

	"fbdetect/internal/sax"
	"fbdetect/internal/stats"
)

// oracleCheckWentAway is the eager went-away evaluation CheckWentAway
// replaced, kept verbatim as the reference: every term of
// NewPattern || (Significant && Lasting && !GoneAway) is computed for
// every candidate, whether or not it can still change Keep.
func oracleCheckWentAway(cfg WentAwayConfig, r *Regression) WentAwayVerdict {
	cfg = cfg.withDefaults()
	hist := r.Windows.Historic.Values
	analysis := r.Windows.Analysis.Values
	if r.ChangePoint <= 0 || r.ChangePoint >= len(analysis) || len(hist) == 0 {
		return WentAwayVerdict{}
	}
	post := append([]float64{}, analysis[r.ChangePoint:]...)
	if r.Windows.Extended != nil {
		post = append(post, r.Windows.Extended.Values...)
	}
	if len(post) == 0 {
		return WentAwayVerdict{}
	}

	// Build one SAX encoder spanning the combined value range so letters
	// are comparable across windows.
	combined := make([]float64, 0, len(hist)+len(analysis)+len(post))
	combined = append(combined, hist...)
	combined = append(combined, analysis...)
	combined = append(combined, post...)
	enc, err := sax.NewEncoder(cfg.SAXBuckets, cfg.SAXValidityPct,
		stats.Min(combined), stats.Max(combined)+1e-12)
	if err != nil {
		return WentAwayVerdict{}
	}
	histWord := enc.Encode(hist)
	postWord := enc.Encode(post)
	postAnalysisWord := enc.Encode(analysis[r.ChangePoint:])

	v := WentAwayVerdict{}
	v.NewPattern = oracleNewPattern(enc, histWord, postWord, post)
	v.SignificantRegression = oracleSignificantRegression(histWord, postAnalysisWord, hist, post)
	v.LastingTrend = oracleLastingTrend(analysis, post, r.ChangePoint)
	v.GoneAway = oracleRegressionGoneAway(post, r)
	v.Keep = v.NewPattern ||
		(v.SignificantRegression && v.LastingTrend && !v.GoneAway)
	return v
}

func oracleNewPattern(enc *sax.Encoder, histWord, postWord sax.Word, post []float64) bool {
	if postWord.InvalidFraction(histWord) < newPatternFraction {
		return false
	}
	tail := tailLen(len(post))
	tailWord := enc.Encode(post[len(post)-tail:])
	if tailWord.InvalidFraction(histWord) < newPatternFraction {
		return false
	}
	lowest := histWord.MinValidLetter()
	if lowest >= 0 && stats.Mean(post) < enc.LetterLowerBound(lowest) {
		return false
	}
	return true
}

func oracleSignificantRegression(histWord, postAnalysisWord sax.Word, hist, post []float64) bool {
	maxValidPre := histWord.MaxValidLetter()
	if maxValidPre >= 0 && postAnalysisWord.MaxLetter() < maxValidPre {
		return false
	}
	p90Post := stats.Percentile(post, 90)
	if p90Post <= stats.Percentile(hist, 95) {
		return false
	}
	prevDay := hist[len(hist)-len(hist)/4:]
	return p90Post > stats.Percentile(prevDay, 90)
}

func oracleLastingTrend(analysis, post []float64, cp int) bool {
	mkPost := stats.MannKendall(post, 0.05)
	mkAll := stats.MannKendall(analysis, 0.05)
	if mkPost.Trend != stats.TrendIncreasing && mkAll.Trend != stats.TrendIncreasing {
		return false
	}
	// Total rise over each trending window, using the lower estimate.
	rise := 0.0
	set := false
	if mkAll.Trend == stats.TrendIncreasing {
		slope, _ := stats.TheilSen(analysis)
		rise, set = slope*float64(len(analysis)), true
	}
	if mkPost.Trend == stats.TrendIncreasing {
		slope, _ := stats.TheilSen(post)
		if riseP := slope * float64(len(post)); !set || riseP < rise {
			rise = riseP
		}
	}
	threshold := trendCoefficient * stats.MAD(analysis[:cp]) * stats.NormalityConstant
	return rise >= threshold
}

func oracleRegressionGoneAway(post []float64, r *Regression) bool {
	tail := tailLen(len(post))
	tailMean := stats.Mean(post[len(post)-tail:])
	return tailMean <= r.Before+goneAwayRecoveryFraction*r.Delta
}

// wentAwayCase is one generated candidate: three windows and a change
// point.
type wentAwayCase struct {
	shape                    string
	hist, analysis, extended []float64 // extended nil = no extended window
	cp                       int
}

// liveSlideSeries draws n points of a bench/gen.go live_slide series:
// the noise-free level plus 2% Gaussian noise, on the 1e-6 grid sampled
// gCPU sits on.
func liveSlideSeries(rng *rand.Rand, n int, base float64, level func(step int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := level(i) + 0.02*base*rng.NormFloat64()
		out[i] = math.Round(v*1e6) / 1e6
	}
	return out
}

// genWentAwayCase draws candidate i. The first shapes are the
// live_slide ones (300/180/60-point windows); the rest are the edges the
// lazy evaluation could get wrong: ties, constants, change points at the
// window's ends, no extended window, a history too short for any test.
func genWentAwayCase(rng *rand.Rand, i int) wentAwayCase {
	const nh, na, ne = 300, 180, 60
	const n = nh + na + ne
	base := 0.02 + 0.04*rng.Float64()
	cut := func(shape string, all []float64, cp int) wentAwayCase {
		return wentAwayCase{shape: shape, hist: all[:nh], analysis: all[nh : nh+na], extended: all[nh+na:], cp: cp}
	}
	// raised is a level that sits mag above base over steps [from, to).
	raised := func(mag float64, from, to int) func(int) float64 {
		return func(s int) float64 {
			if s >= from && s < to {
				return base * (1 + mag)
			}
			return base
		}
	}
	switch i % 12 {
	case 0: // seasonal series re-flagged at an arbitrary swing
		mag, phase := 0.03+0.03*rng.Float64(), rng.Intn(120)
		all := liveSlideSeries(rng, n, base, func(s int) float64 {
			return base * (1 + mag*math.Sin(2*math.Pi*float64(s+phase)/120))
		})
		return cut("seasonal", all, 1+rng.Intn(na-1))
	case 1: // persistent step, +5-10%
		mag, onset := 0.05+0.05*rng.Float64(), nh+10+rng.Intn(na-20)
		return cut("step", liveSlideSeries(rng, n, base, raised(mag, onset, n)), onset-nh)
	case 2: // small step of 1-3 noise sigmas: the letters stay historic, the trend test decides
		mag, onset := 0.02*(1+2*rng.Float64()), nh+10+rng.Intn(na-20)
		return cut("small-step", liveSlideSeries(rng, n, base, raised(mag, onset, n)), onset-nh)
	case 3: // +8-16% transient ending inside the window
		mag, length := 0.08+0.08*rng.Float64(), 8+rng.Intn(32)
		onset := nh + 5 + rng.Intn(na-10)
		return cut("transient", liveSlideSeries(rng, n, base, raised(mag, onset, onset+length)), onset-nh)
	case 4: // +30-50% transient, the benchmark's size
		mag, length := 0.30+0.20*rng.Float64(), 8+rng.Intn(32)
		onset := nh + 5 + rng.Intn(na-10)
		return cut("tall-transient", liveSlideSeries(rng, n, base, raised(mag, onset, onset+length)), onset-nh)
	case 5: // ramp after the change point
		rise, onset := 0.02+0.10*rng.Float64(), nh+10+rng.Intn(na/2)
		all := liveSlideSeries(rng, n, base, func(s int) float64 {
			if s >= onset {
				return base * (1 + rise*float64(s-onset)/float64(n-onset))
			}
			return base
		})
		return cut("ramp", all, onset-nh)
	case 6: // quantised to a handful of levels: ties everywhere
		levels := float64(2 + rng.Intn(4))
		shift := float64(rng.Intn(3))
		all := make([]float64, n)
		cp := 1 + rng.Intn(na-1)
		for k := range all {
			all[k] = math.Floor(rng.Float64() * levels)
			if k >= nh+cp {
				all[k] += shift
			}
		}
		return cut("ties", all, cp)
	case 7: // constant windows, optionally with a constant shift
		all := make([]float64, n)
		cp := 1 + rng.Intn(na-1)
		shift := float64(rng.Intn(2))
		for k := range all {
			all[k] = 5
			if k >= nh+cp {
				all[k] += shift
			}
		}
		return cut("constant", all, cp)
	case 8: // change point at the first or the last legal index
		cp := 1
		if rng.Intn(2) == 0 {
			cp = na - 1
		}
		return cut("edge-cp", liveSlideSeries(rng, n, base, raised(0.10*rng.Float64(), nh+cp, n)), cp)
	case 9: // no extended window
		mag, onset := 0.12*rng.Float64(), nh+10+rng.Intn(na-20)
		all := liveSlideSeries(rng, nh+na, base, raised(mag, onset, n))
		return wentAwayCase{shape: "no-extended", hist: all[:nh], analysis: all[nh:], cp: onset - nh}
	case 10: // history too short for Mann-Kendall or a previous day
		h := 1 + rng.Intn(3)
		a := 8 + rng.Intn(40)
		all := noisy(rng, h+a+4, 10, 0.5)
		cp := 1 + rng.Intn(a-1)
		for k := h + cp; k < len(all); k++ {
			all[k] += 2 * rng.Float64()
		}
		return wentAwayCase{shape: "short-hist", hist: all[:h], analysis: all[h : h+a], extended: all[h+a:], cp: cp}
	default: // wide-noise history, unquantised: the percentiles decide
		mag, onset := 3*rng.Float64(), nh+10+rng.Intn(na-20)
		all := noisy(rng, n, 10, 1)
		for k := onset; k < len(all); k++ {
			all[k] += mag
		}
		return cut("wide-noise", all, onset-nh)
	}
}

// keepOf is the paper's predicate over the four terms.
func keepOf(newPattern, significant, lasting, goneAway bool) bool {
	return newPattern || (significant && lasting && !goneAway)
}

// TestWentAwayLazyMatchesEagerOracle: over seeded candidates, Keep equals
// the eager oracle's, every term CheckWentAway evaluated equals the
// oracle's, a skipped term reads false, and a term is skipped only when
// the oracle's Keep is the same for both of its values.
func TestWentAwayLazyMatchesEagerOracle(t *testing.T) {
	const cases = 2400
	rng := rand.New(rand.NewSource(21))
	type tally struct{ t, f, skipped int }
	terms := map[WentAwayTerms]*tally{
		TermNewPattern: {}, TermGoneAway: {}, TermSignificantRegression: {}, TermLastingTrend: {},
	}
	kept := 0
	var sc wentAwayScratch // kept across candidates, as a sweep worker keeps it
	for i := 0; i < cases; i++ {
		c := genWentAwayCase(rng, i)
		ws := buildWindows(t, c.hist, c.analysis, c.extended)
		if c.extended == nil {
			ws.Extended = nil
		}
		r := regressionAt(t, ws, c.cp)
		want := oracleCheckWentAway(WentAwayConfig{}, r)
		got := CheckWentAway(WentAwayConfig{}, r)
		if reused := checkWentAway(WentAwayConfig{}, r, &sc); reused != got {
			t.Fatalf("case %d (%s): verdict %+v in a reused scratch, %+v in a fresh one", i, c.shape, reused, got)
		}
		if got.Keep != want.Keep {
			t.Fatalf("case %d (%s): Keep = %v, oracle %v\n got %+v\nwant %+v", i, c.shape, got.Keep, want.Keep, got, want)
		}
		if got.Keep != keepOf(got.NewPattern, got.SignificantRegression, got.LastingTrend, got.GoneAway) {
			t.Fatalf("case %d (%s): Keep disagrees with the verdict's own terms: %+v", i, c.shape, got)
		}
		if got.Keep {
			kept++
		}
		for _, term := range []struct {
			id        WentAwayTerms
			got, want bool
			// flipped is the oracle's Keep with this term negated.
			flipped bool
		}{
			{TermNewPattern, got.NewPattern, want.NewPattern,
				keepOf(!want.NewPattern, want.SignificantRegression, want.LastingTrend, want.GoneAway)},
			{TermGoneAway, got.GoneAway, want.GoneAway,
				keepOf(want.NewPattern, want.SignificantRegression, want.LastingTrend, !want.GoneAway)},
			{TermSignificantRegression, got.SignificantRegression, want.SignificantRegression,
				keepOf(want.NewPattern, !want.SignificantRegression, want.LastingTrend, want.GoneAway)},
			{TermLastingTrend, got.LastingTrend, want.LastingTrend,
				keepOf(want.NewPattern, want.SignificantRegression, !want.LastingTrend, want.GoneAway)},
		} {
			tl := terms[term.id]
			if got.Skipped&term.id == 0 {
				if term.got != term.want {
					t.Fatalf("case %d (%s): evaluated term %v = %v, oracle %v\n got %+v\nwant %+v",
						i, c.shape, term.id, term.got, term.want, got, want)
				}
				if term.got {
					tl.t++
				} else {
					tl.f++
				}
				continue
			}
			tl.skipped++
			if term.got {
				t.Fatalf("case %d (%s): skipped term %v reads true: %+v", i, c.shape, term.id, got)
			}
			if term.flipped != want.Keep {
				t.Fatalf("case %d (%s): term %v skipped although it decides Keep\n got %+v\nwant %+v",
					i, c.shape, term.id, got, want)
			}
		}
	}
	// The property is only worth what the generator reaches: every term
	// must have been seen true, false and (NewPattern aside, which is
	// always evaluated) skipped, and both verdicts must occur.
	for id, tl := range terms {
		t.Logf("%-22v true %4d  false %4d  skipped %4d", id, tl.t, tl.f, tl.skipped)
		if tl.t < 20 || tl.f < 20 {
			t.Errorf("term %v evaluated true %d and false %d times; the generator does not exercise it", id, tl.t, tl.f)
		}
		if id != TermNewPattern && tl.skipped < 20 {
			t.Errorf("term %v skipped %d times; the generator does not exercise the lazy path", id, tl.skipped)
		}
	}
	if terms[TermNewPattern].skipped != 0 {
		t.Errorf("NewPattern skipped %d times; it is the first term and always evaluated", terms[TermNewPattern].skipped)
	}
	if kept < 100 || cases-kept < 100 {
		t.Errorf("kept %d of %d candidates; want both verdicts well represented", kept, cases)
	}
}

// TestWentAwayLazyMatchesOracleOnCustomConfig repeats the comparison under
// non-default SAX settings, which move the cheap exits, and the default.
func TestWentAwayLazyMatchesOracleOnCustomConfig(t *testing.T) {
	cfgs := []WentAwayConfig{
		{SAXBuckets: 5, SAXValidityPct: 10},
		{SAXBuckets: 64, SAXValidityPct: 0.5},
		{},
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 480; i++ {
		c := genWentAwayCase(rng, i)
		ws := buildWindows(t, c.hist, c.analysis, c.extended)
		r := regressionAt(t, ws, c.cp)
		cfg := cfgs[i%len(cfgs)]
		want, got := oracleCheckWentAway(cfg, r), CheckWentAway(cfg, r)
		if got.Keep != want.Keep || got.NewPattern != want.NewPattern {
			t.Fatalf("case %d (%s) cfg %+v:\n got %+v\nwant %+v", i, c.shape, cfg, got, want)
		}
		for _, term := range []struct {
			id        WentAwayTerms
			got, want bool
		}{
			{TermGoneAway, got.GoneAway, want.GoneAway},
			{TermSignificantRegression, got.SignificantRegression, want.SignificantRegression},
			{TermLastingTrend, got.LastingTrend, want.LastingTrend},
		} {
			if got.Skipped&term.id == 0 && term.got != term.want {
				t.Fatalf("case %d (%s) cfg %+v: term %v = %v, oracle %v", i, c.shape, cfg, term.id, term.got, term.want)
			}
		}
	}
}

// TestWentAwayDegenerateVerdictSkipsNothing: the early returns evaluate no
// term and claim no skip, so the zero verdict still satisfies the
// predicate identity.
func TestWentAwayDegenerateVerdictSkipsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ws := buildWindows(t, noisy(rng, 50, 10, 0.1), noisy(rng, 50, 10, 0.1), nil)
	for _, cp := range []int{-1, 0, 50, 60} {
		r := regressionAt(t, ws, 25)
		r.ChangePoint = cp
		if v := CheckWentAway(WentAwayConfig{}, r); v != (WentAwayVerdict{}) {
			t.Errorf("cp=%d: verdict %+v, want zero", cp, v)
		}
	}
	// A non-finite value makes the SAX range unusable.
	bad := noisy(rng, 50, 10, 0.1)
	bad[0] = math.NaN()
	r := regressionAt(t, buildWindows(t, bad, noisy(rng, 50, 10, 0.1), nil), 25)
	if got, want := CheckWentAway(WentAwayConfig{}, r), oracleCheckWentAway(WentAwayConfig{}, r); got != want {
		t.Errorf("NaN history: verdict %+v, oracle %+v", got, want)
	}
}
