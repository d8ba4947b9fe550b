package core

import (
	"strings"
	"sync"

	"fbdetect/internal/sax"
	"fbdetect/internal/stats"
)

// WentAwayTerms is a set of terms of the went-away predicate.
type WentAwayTerms uint8

// The predicate's terms, in the order CheckWentAway evaluates them.
const (
	TermNewPattern WentAwayTerms = 1 << iota
	TermGoneAway
	TermSignificantRegression
	TermLastingTrend
)

func (t WentAwayTerms) String() string {
	var names []string
	for i, name := range [...]string{"NewPattern", "GoneAway", "SignificantRegression", "LastingTrend"} {
		if t&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	if names == nil {
		return "none"
	}
	return strings.Join(names, "|")
}

// WentAwayVerdict explains the went-away detector's decision for one
// regression candidate.
type WentAwayVerdict struct {
	// Keep is true when the regression is considered real (not transient).
	Keep bool
	// Term-level outcomes of the paper's predicate:
	// NewPattern OR (SignificantRegression AND LastingTrend AND NOT GoneAway).
	NewPattern            bool
	SignificantRegression bool
	LastingTrend          bool
	GoneAway              bool
	// Skipped names the terms that were not evaluated because the terms
	// before them had already decided Keep. A skipped term reads false,
	// so Keep equals the predicate over the four fields either way.
	Skipped WentAwayTerms
}

// CheckWentAway evaluates the went-away predicate of paper §5.2.2 on a
// regression candidate. The post-regression window is the analysis window
// after the change point joined with the extended window; history is the
// historic window.
//
// The terms are evaluated cheapest first and only while they can still
// change Keep: NewPattern (SAX letters), then GoneAway (one tail mean),
// then SignificantRegression (a letter compare, then three percentiles),
// and the trend test — two quadratic Mann-Kendall passes and up to two
// Theil-Sen fits — only for a candidate that is not a new pattern, has
// not gone away and is significant.
func CheckWentAway(cfg WentAwayConfig, r *Regression) WentAwayVerdict {
	sc := wentAwayScratchPool.Get().(*wentAwayScratch)
	defer wentAwayScratchPool.Put(sc)
	return checkWentAway(cfg, r, sc)
}

// wentAwayScratchPool serves CheckWentAway's callers outside a sweep,
// which keep no scratch of their own.
var wentAwayScratchPool = sync.Pool{New: func() any { return new(wentAwayScratch) }}

// wentAwayScratch is what one went-away decision works in: the joined
// post window, the copies the percentile selections permute and the SAX
// words' letters and counts. A sweep worker keeps one in its scanScratch;
// nothing in it outlives the decision.
type wentAwayScratch struct {
	post []float64
	sel  []float64
	ints []int
}

// checkWentAway is CheckWentAway working in sc.
func checkWentAway(cfg WentAwayConfig, r *Regression, sc *wentAwayScratch) WentAwayVerdict {
	cfg = cfg.withDefaults()
	hist := r.Windows.Historic.Values
	analysis := r.Windows.Analysis.Values
	if r.ChangePoint <= 0 || r.ChangePoint >= len(analysis) || len(hist) == 0 {
		return WentAwayVerdict{}
	}
	postAnalysis := analysis[r.ChangePoint:]
	var ext []float64
	if r.Windows.Extended != nil {
		ext = r.Windows.Extended.Values
	}
	post := postAnalysis
	if len(ext) > 0 {
		if cap(sc.post) < len(postAnalysis)+len(ext) {
			sc.post = make([]float64, 0, len(postAnalysis)+len(ext))
		}
		sc.post = append(append(sc.post[:0], postAnalysis...), ext...)
		post = sc.post
	}

	// Build one SAX encoder spanning the combined value range so letters
	// are comparable across windows; post holds nothing that analysis and
	// ext do not.
	lo, hi := hist[0], hist[0]
	for _, xs := range [][]float64{hist, analysis, ext} {
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	enc, err := sax.NewEncoder(cfg.SAXBuckets, cfg.SAXValidityPct, lo, hi+1e-12)
	if err != nil {
		return WentAwayVerdict{}
	}
	// Letters of hist and post, then the counts of four words: hist,
	// post, and the two slices of post the terms read.
	b := cfg.SAXBuckets
	if need := len(hist) + len(post) + 4*b; cap(sc.ints) < need {
		sc.ints = make([]int, need)
	}
	ints := sc.ints[:cap(sc.ints)]
	letters, counts := ints[:len(hist)+len(post)], ints[len(hist)+len(post):]
	histWord := enc.EncodeInto(letters[:len(hist)], counts[:b], hist)
	postWord := enc.EncodeInto(letters[len(hist):], counts[b:2*b], post)
	sliceCounts := counts[2*b : 3*b]
	postAnalysisCounts := counts[3*b : 4*b]

	var v WentAwayVerdict
	switch {
	case newPattern(cfg, enc, histWord, postWord, post, sliceCounts):
		v.NewPattern = true
		v.Skipped = TermGoneAway | TermSignificantRegression | TermLastingTrend
	case regressionGoneAway(cfg, post, r):
		v.GoneAway = true
		v.Skipped = TermSignificantRegression | TermLastingTrend
	case !significantRegression(histWord, postWord.SliceInto(postAnalysisCounts, 0, len(postAnalysis)), hist, post, &sc.sel):
		v.Skipped = TermLastingTrend
	default:
		v.SignificantRegression = true
		v.LastingTrend = lastingTrend(cfg, analysis, post, r.ChangePoint)
	}
	v.Keep = v.NewPattern ||
		(v.SignificantRegression && v.LastingTrend && !v.GoneAway)
	return v
}

// newPattern reports whether the post-regression window forms a pattern
// unseen in history: most of its letters are invalid in the historic word,
// unless the post average sits below the lowest valid historic bucket
// (no cost increase despite novelty). The novelty must also persist into
// the tail of the window — a long transient whose letters are historically
// invalid but which has recovered by the window's end is not a new
// pattern, it is a transient (the situation Figure 1(c) illustrates).
func newPattern(cfg WentAwayConfig, enc *sax.Encoder, histWord, postWord sax.Word, post []float64, tailCounts []int) bool {
	if postWord.InvalidFraction(histWord) < cfg.NewPatternFraction {
		return false
	}
	tail := tailLen(cfg, len(post))
	tailWord := postWord.SliceInto(tailCounts, len(post)-tail, len(post))
	if tailWord.InvalidFraction(histWord) < cfg.NewPatternFraction {
		return false
	}
	lowest := histWord.MinValidLetter()
	if lowest >= 0 && stats.Mean(post) < enc.LetterLowerBound(lowest) {
		return false
	}
	return true
}

// tailLen returns the number of trailing points the gone-away and
// new-pattern checks examine.
func tailLen(cfg WentAwayConfig, postLen int) int {
	tail := cfg.GoneAwayTailPoints
	if tail <= 0 {
		tail = postLen / 10
	}
	if tail < 3 {
		tail = 3
	}
	if tail > postLen {
		tail = postLen
	}
	return tail
}

// significantRegression checks the magnitude: the largest letter after the
// change point reaches the largest valid pre-regression letter, and the
// post P90 exceeds both the historic P95 and the previous day's P90 (we
// use the trailing quarter of the historic window as "the previous day").
func significantRegression(histWord, postAnalysisWord sax.Word, hist, post []float64, sel *[]float64) bool {
	maxValidPre := histWord.MaxValidLetter()
	if maxValidPre >= 0 && postAnalysisWord.MaxLetter() < maxValidPre {
		return false
	}
	if need := max(len(post), len(hist)); cap(*sel) < need {
		*sel = make([]float64, 0, need)
	}
	p90Post := stats.PercentileScratch(post, 90, sel)
	if p90Post <= stats.PercentileScratch(hist, 95, sel) {
		return false
	}
	prevDay := hist[len(hist)-len(hist)/4:]
	return p90Post > stats.PercentileScratch(prevDay, 90, sel)
}

// lastingTrend checks that the regression persists as a monotonic upward
// trend. Mann-Kendall runs on both the post-regression window and the
// entire analysis window; the Theil-Sen slope of the lower-sloped trending
// window is compared against the MAD-based regression threshold.
func lastingTrend(cfg WentAwayConfig, analysis, post []float64, cp int) bool {
	mkPost := stats.MannKendall(post, 0.05)
	mkAll := stats.MannKendall(analysis, 0.05)
	if mkPost.Trend != stats.TrendIncreasing && mkAll.Trend != stats.TrendIncreasing {
		return false
	}
	// Total rise over each trending window, using the lower estimate. The
	// fits share one slope array: at ~29k slopes for a 240-point window it
	// is too large to keep in a worker's scratch for the 2% of candidates
	// that get here.
	var slopes []float64
	rise := 0.0
	set := false
	if mkAll.Trend == stats.TrendIncreasing {
		slope, _ := stats.TheilSenScratch(analysis, &slopes)
		rise, set = slope*float64(len(analysis)), true
	}
	if mkPost.Trend == stats.TrendIncreasing {
		slope, _ := stats.TheilSenScratch(post, &slopes)
		if riseP := slope * float64(len(post)); !set || riseP < rise {
			rise = riseP
		}
	}
	threshold := cfg.TrendCoefficient * stats.MAD(analysis[:cp]) * stats.NormalityConstant
	return rise >= threshold
}

// regressionGoneAway is the final sanity check: the last few data points
// have recovered toward the pre-regression level.
func regressionGoneAway(cfg WentAwayConfig, post []float64, r *Regression) bool {
	tail := tailLen(cfg, len(post))
	tailMean := stats.Mean(post[len(post)-tail:])
	return tailMean <= r.Before+cfg.GoneAwayRecoveryFraction*r.Delta
}
