package fbdetect

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// jsonConfig is the on-disk representation of a detection job. Durations
// use Go syntax ("10h", "3d" is not valid Go syntax — use "72h").
type jsonConfig struct {
	Name              string  `json:"name"`
	Threshold         float64 `json:"threshold"`
	RelativeThreshold bool    `json:"relative_threshold"`
	RerunInterval     string  `json:"rerun_interval"`
	Windows           struct {
		Historic string `json:"historic"`
		Analysis string `json:"analysis"`
		Extended string `json:"extended"`
	} `json:"windows"`
	Alpha    float64 `json:"alpha"`
	LongTerm bool    `json:"long_term"`
	// Per-metric-name threshold overrides for mixed-scale metric sets.
	MetricThresholds map[string]float64 `json:"metric_thresholds"`
	MetricRelative   map[string]bool    `json:"metric_relative"`
	WentAway         struct {
		SAXBuckets     int     `json:"sax_buckets"`
		SAXValidityPct float64 `json:"sax_validity_pct"`
	} `json:"went_away"`
	Seasonality struct {
		ZThreshold float64 `json:"z_threshold"`
		Strength   float64 `json:"strength"`
	} `json:"seasonality"`
	CostShift struct {
		MaxDomainCostRatio float64 `json:"max_domain_cost_ratio"`
	} `json:"cost_shift"`
	RootCause struct {
		MinScore float64 `json:"min_score"`
	} `json:"root_cause"`
}

// ParseConfig reads a detection-job configuration in JSON from r.
// Unset fields keep the library defaults; the windows are required.
func ParseConfig(r io.Reader) (Config, error) {
	var jc jsonConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		return Config{}, fmt.Errorf("fbdetect: parsing config: %w", err)
	}
	cfg := Config{
		Name:              jc.Name,
		Threshold:         jc.Threshold,
		RelativeThreshold: jc.RelativeThreshold,
		Alpha:             jc.Alpha,
		LongTerm:          jc.LongTerm,
		MetricThresholds:  jc.MetricThresholds,
		MetricRelative:    jc.MetricRelative,
	}
	var err error
	parse := func(name, s string) time.Duration {
		if s == "" || err != nil {
			return 0
		}
		d, perr := time.ParseDuration(s)
		if perr != nil {
			err = fmt.Errorf("fbdetect: config field %s: %w", name, perr)
			return 0
		}
		return d
	}
	cfg.RerunInterval = parse("rerun_interval", jc.RerunInterval)
	cfg.Windows.Historic = parse("windows.historic", jc.Windows.Historic)
	cfg.Windows.Analysis = parse("windows.analysis", jc.Windows.Analysis)
	cfg.Windows.Extended = parse("windows.extended", jc.Windows.Extended)
	cfg.WentAway.SAXBuckets = jc.WentAway.SAXBuckets
	cfg.WentAway.SAXValidityPct = jc.WentAway.SAXValidityPct
	cfg.Seasonality.ZThreshold = jc.Seasonality.ZThreshold
	cfg.Seasonality.Strength = jc.Seasonality.Strength
	cfg.CostShift.MaxDomainCostRatio = jc.CostShift.MaxDomainCostRatio
	cfg.RootCause.MinScore = jc.RootCause.MinScore
	if err != nil {
		return Config{}, err
	}
	if verr := cfg.Validate(); verr != nil {
		return Config{}, verr
	}
	return cfg, nil
}

// LoadConfig reads a detection-job configuration from a JSON file.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ParseConfig(f)
}
