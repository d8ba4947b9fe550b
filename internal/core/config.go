package core

import (
	"fmt"
	"time"

	"fbdetect/internal/timeseries"
)

// Config configures one detection job, matching one row of the paper's
// Table 1 plus algorithm parameters. The README's "Configuration knobs"
// table names what sets each field.
type Config struct {
	// Name labels the configuration (e.g. "FrontFaaS (small)").
	Name string

	// Threshold is the detection threshold. With RelativeThreshold false
	// it is an absolute change in the metric (e.g. 0.00005 for a 0.005%
	// gCPU change); with RelativeThreshold true it is a relative change
	// (e.g. 0.05 for 5%).
	Threshold         float64
	RelativeThreshold bool

	// MetricThresholds overrides the threshold per metric name (e.g.
	// "throughput": 0.05 with MetricRelative["throughput"] = true), since
	// one absolute threshold cannot fit metrics of different scales —
	// the paper's Table 1 configures thresholds per workload and metric
	// type.
	MetricThresholds map[string]float64
	// MetricRelative marks per-metric overrides as relative thresholds.
	MetricRelative map[string]bool

	// RerunInterval is how often the job scans: NewMonitor's interval
	// when the caller passes none. Callers that drive scan times
	// themselves ignore it.
	RerunInterval time.Duration

	// Windows is the historic/analysis/extended layout of Figure 4.
	Windows timeseries.WindowConfig

	// Alpha is the significance level for the change-point validation
	// test (paper: 0.01).
	Alpha float64

	// LongTerm enables the long-term detection path alongside short-term.
	LongTerm bool

	// CheckpointCacheSize bounds the per-series detector-checkpoint cache
	// in entries (default 8192, one entry per metric). Checkpoints memoize
	// the full per-metric detection outcome keyed by the exact window
	// content identity (metric, epoch, window), so a warm scan touches
	// only series that changed since the last cycle — without decoding
	// unchanged ones. Results are byte-identical to a cold scan. Negative
	// disables checkpointing.
	CheckpointCacheSize int

	// WentAway tunes the went-away detector.
	WentAway WentAwayConfig

	// Seasonality tunes the seasonality detector.
	Seasonality SeasonalityConfig

	// CostShift tunes the cost-shift detector.
	CostShift CostShiftConfig

	// PopShift tunes the population-shift diagnosis stage.
	PopShift PopShiftConfig

	// Dedup seeds SOMDedup.
	Dedup DedupConfig

	// RootCause tunes root-cause analysis.
	RootCause RootCauseConfig
}

// WentAwayConfig tunes the went-away detector (paper §5.2.2).
type WentAwayConfig struct {
	// SAXBuckets and SAXValidityPct configure the SAX discretization
	// (paper defaults: N=20, X=3%).
	SAXBuckets     int
	SAXValidityPct float64
	// NewPatternFraction is the fraction of post-regression points that
	// must fall in historically invalid buckets for the post-regression
	// window to count as a new pattern.
	NewPatternFraction float64
	// TrendCoefficient is the sensitivity coefficient applied to the MAD
	// regression threshold (paper default 1.5).
	TrendCoefficient float64
	// GoneAwayTailPoints is how many trailing points the final sanity
	// check examines (0 derives it as 10% of the post window).
	GoneAwayTailPoints int
	// GoneAwayRecoveryFraction: the regression is considered gone when
	// the tail mean has fallen below Before + fraction*Delta.
	GoneAwayRecoveryFraction float64
}

func (c WentAwayConfig) withDefaults() WentAwayConfig {
	if c.SAXBuckets == 0 {
		c.SAXBuckets = 20
	}
	if c.SAXValidityPct == 0 {
		c.SAXValidityPct = 3
	}
	if c.NewPatternFraction == 0 {
		c.NewPatternFraction = 0.5
	}
	if c.TrendCoefficient == 0 {
		c.TrendCoefficient = 1.5
	}
	if c.GoneAwayRecoveryFraction == 0 {
		c.GoneAwayRecoveryFraction = 0.25
	}
	return c
}

// SeasonalityConfig tunes the seasonality detector (paper §5.2.3).
type SeasonalityConfig struct {
	// Strength multiplies the autocorrelation significance bound; the
	// series is seasonal only if the dominant lag's correlation exceeds
	// it (default 3).
	Strength float64
	// ZThreshold is the minimum deseasonalized z-score for a regression
	// to survive (default 2).
	ZThreshold float64
}

func (c SeasonalityConfig) withDefaults() SeasonalityConfig {
	if c.Strength == 0 {
		c.Strength = 3
	}
	if c.ZThreshold == 0 {
		c.ZThreshold = 2
	}
	return c
}

// CostShiftConfig tunes the cost-shift detector (paper §5.4).
type CostShiftConfig struct {
	// MaxDomainCostRatio excludes a domain whose cost exceeds this many
	// times the regression's cost change (the paper's "domain's cost is
	// significantly larger" rule; its example is 20% domain cost vs a
	// 0.005% regression, a ratio of 4000).
	MaxDomainCostRatio float64
	// NegligibleChangeFraction: the regression is a cost shift when the
	// domain's cost change is below this fraction of the regression's
	// cost change.
	NegligibleChangeFraction float64
}

func (c CostShiftConfig) withDefaults() CostShiftConfig {
	if c.MaxDomainCostRatio == 0 {
		c.MaxDomainCostRatio = 2000
	}
	if c.NegligibleChangeFraction == 0 {
		c.NegligibleChangeFraction = 0.25
	}
	return c
}

// PopShiftConfig tunes the population-shift diagnosis stage (Lumos-style
// stratified re-weighting; ROADMAP item 2). The stage is opt-in: with
// Enabled false the pipeline's behavior and output are identical to a
// build without the stage.
type PopShiftConfig struct {
	// Enabled turns the stage on. Off by default. The diagnosis runs at
	// popshift.Config's defaults.
	Enabled bool
}

// DedupConfig tunes SOMDedup (paper §5.5.1).
type DedupConfig struct {
	// SOMSeed seeds SOM training for reproducibility.
	SOMSeed int64
}

// RootCauseConfig tunes root-cause analysis (paper §5.6).
type RootCauseConfig struct {
	// Lookback is how far before the change point to search for candidate
	// changes (default 24h).
	Lookback time.Duration
	// MinScore is the confidence bar below which FBDetect suggests no
	// root cause.
	MinScore float64
	// TopK is how many candidates to report (paper evaluates top-3).
	TopK int
}

func (c RootCauseConfig) withDefaults() RootCauseConfig {
	if c.Lookback == 0 {
		c.Lookback = 24 * time.Hour
	}
	if c.MinScore == 0 {
		c.MinScore = 0.35
	}
	if c.TopK == 0 {
		c.TopK = 3
	}
	return c
}

// WithDefaults returns the config with every zero field defaulted.
func (c Config) WithDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	c.WentAway = c.WentAway.withDefaults()
	c.Seasonality = c.Seasonality.withDefaults()
	c.CostShift = c.CostShift.withDefaults()
	c.RootCause = c.RootCause.withDefaults()
	return c
}

// Validate checks the configuration: Alpha lies in [0, 1), and no
// threshold, interval or stage knob is negative or NaN. WithDefaults
// fills only zero fields, so a config that validates runs with the
// values it was given.
func (c Config) Validate() error {
	if !(c.Alpha >= 0 && c.Alpha < 1) {
		return fmt.Errorf("core: Alpha must lie in [0, 1), got %v", c.Alpha)
	}
	for name, v := range c.MetricThresholds {
		if !(v >= 0) {
			return fmt.Errorf("core: MetricThresholds[%q] must be >= 0, got %v", name, v)
		}
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"Threshold", c.Threshold},
		{"RerunInterval", float64(c.RerunInterval)},
		{"WentAway.SAXBuckets", float64(c.WentAway.SAXBuckets)},
		{"WentAway.SAXValidityPct", c.WentAway.SAXValidityPct},
		{"WentAway.NewPatternFraction", c.WentAway.NewPatternFraction},
		{"WentAway.TrendCoefficient", c.WentAway.TrendCoefficient},
		{"WentAway.GoneAwayTailPoints", float64(c.WentAway.GoneAwayTailPoints)},
		{"WentAway.GoneAwayRecoveryFraction", c.WentAway.GoneAwayRecoveryFraction},
		{"Seasonality.Strength", c.Seasonality.Strength},
		{"Seasonality.ZThreshold", c.Seasonality.ZThreshold},
		{"CostShift.MaxDomainCostRatio", c.CostShift.MaxDomainCostRatio},
		{"CostShift.NegligibleChangeFraction", c.CostShift.NegligibleChangeFraction},
		{"RootCause.Lookback", float64(c.RootCause.Lookback)},
		{"RootCause.MinScore", c.RootCause.MinScore},
		{"RootCause.TopK", float64(c.RootCause.TopK)},
	} {
		if !(k.v >= 0) {
			return fmt.Errorf("core: %s must be >= 0, got %v", k.name, k.v)
		}
	}
	return c.Windows.Validate()
}
