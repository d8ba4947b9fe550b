package evalharness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"fbdetect/internal/core"
)

// labelState tracks one ground-truth label through scoring.
type labelState struct {
	Label
	reports    int
	detectedAt time.Time
	topK       bool // ChangeID ranked within TopK on the first matched report
}

// ClassResult is the per-class row of the confusion matrix.
type ClassResult struct {
	Scenarios int `json:"scenarios"`
	Reports   int `json:"reports"`
	// Positive-class fields.
	PositiveLabels int      `json:"positive_labels,omitempty"`
	Detected       int      `json:"detected,omitempty"`
	Recall         float64  `json:"recall"`
	Missed         []string `json:"missed,omitempty"`
	// Matched reports beyond the first per label (deduplication leaks).
	DuplicateReports  int     `json:"duplicate_reports,omitempty"`
	DedupCollapseRate float64 `json:"dedup_collapse_rate,omitempty"`
	MeanTimeToDetect  float64 `json:"mean_time_to_detect_minutes,omitempty"`
	TopKRootCause     float64 `json:"topk_root_cause_rate,omitempty"`
	// Negative-class fields: a scenario is suppressed when the pipeline
	// emitted nothing for it.
	FalsePositives  int      `json:"false_positive_reports"`
	Suppressed      int      `json:"suppressed_scenarios,omitempty"`
	SuppressionRate float64  `json:"suppression_rate"`
	Leaks           []string `json:"leaks,omitempty"`
}

// MagnitudeBand is recall restricted to labels at or above a magnitude.
type MagnitudeBand struct {
	MinMagnitude float64 `json:"min_magnitude"`
	Labels       int     `json:"labels"`
	Detected     int     `json:"detected"`
	Recall       float64 `json:"recall"`
}

// Report is the machine-readable outcome of one suite run
// (EVAL_report.json).
type Report struct {
	Suite     string                 `json:"suite"`
	Seed      int64                  `json:"seed"`
	Scenarios int                    `json:"scenarios"`
	Scans     int                    `json:"scans"`
	Classes   map[Class]*ClassResult `json:"classes"`

	// Headline figures the gate checks.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// RecallFleetScale is recall over injected regressions with magnitude
	// >= FleetScaleMagnitude (the paper's comfortably-detectable band).
	FleetScaleMagnitude float64 `json:"fleet_scale_magnitude"`
	RecallFleetScale    float64 `json:"recall_fleet_scale"`

	RecallByMagnitude []MagnitudeBand `json:"recall_by_magnitude"`
	MeanTimeToDetect  float64         `json:"mean_time_to_detect_minutes"`
	DedupCollapseRate float64         `json:"dedup_collapse_rate"`
	TopK              int             `json:"top_k"`
	TopKRootCause     float64         `json:"topk_root_cause_rate"`

	TruePositiveReports  int      `json:"true_positive_reports"`
	FalsePositiveReports int      `json:"false_positive_reports"`
	FalsePositiveDetails []string `json:"false_positive_details,omitempty"`

	Funnel core.Funnel `json:"funnel"`

	FloorCurve []FloorPoint `json:"floor_curve,omitempty"`
}

// score matches the monitor's reports against the labels and aggregates
// the confusion matrix.
func (s *Suite) score(seed int64, reports []*core.Regression,
	scenarios map[string]Scenario, labels []*labelState) *Report {
	rep := &Report{
		Suite: s.Name, Seed: seed, Scenarios: len(s.Scenarios),
		Classes: map[Class]*ClassResult{}, TopK: s.TopK,
		FleetScaleMagnitude: s.FleetScaleMagnitude,
	}
	class := func(c Class) *ClassResult {
		cr := rep.Classes[c]
		if cr == nil {
			cr = &ClassResult{}
			rep.Classes[c] = cr
		}
		return cr
	}
	for _, sc := range s.Scenarios {
		class(sc.Class).Scenarios++
	}

	byService := map[string][]*labelState{}
	for _, l := range labels {
		byService[l.Service] = append(byService[l.Service], l)
	}
	leaked := map[string]bool{} // scenario name -> emitted a false positive

	for _, r := range reports {
		sc, known := scenarios[r.Service]
		if !known {
			rep.FalsePositiveReports++
			rep.FalsePositiveDetails = append(rep.FalsePositiveDetails,
				fmt.Sprintf("unknown service: %v", r))
			continue
		}
		cr := class(sc.Class)
		cr.Reports++
		var matched *labelState
		for _, l := range byService[r.Service] {
			if l.Expect && l.Matches(r.Service, r.Entity, r.ChangePointTime) {
				matched = l
				break
			}
		}
		if matched == nil {
			cr.FalsePositives++
			rep.FalsePositiveReports++
			leaked[sc.Name] = true
			rep.FalsePositiveDetails = append(rep.FalsePositiveDetails,
				fmt.Sprintf("%s [%s]: %v", sc.Name, sc.Class, r))
			continue
		}
		rep.TruePositiveReports++
		matched.reports++
		if matched.reports == 1 {
			matched.detectedAt = r.DetectedAt
			matched.topK = rankedWithin(r, matched.ChangeID, s.TopK)
		} else {
			cr.DuplicateReports++
		}
	}

	// Aggregate labels.
	var ttdSum float64
	var ttdN int
	var collapseSum float64
	var collapseN int
	var topKHit, topKN int
	bands := []float64{0, s.FleetScaleMagnitude}
	bandStats := make([]MagnitudeBand, len(bands))
	for i, b := range bands {
		bandStats[i].MinMagnitude = b
	}
	for _, l := range labels {
		cr := class(l.Class)
		if !l.Expect {
			continue
		}
		cr.PositiveLabels++
		for i, b := range bands {
			if l.Magnitude >= b {
				bandStats[i].Labels++
				if l.reports > 0 {
					bandStats[i].Detected++
				}
			}
		}
		if l.reports == 0 {
			cr.Missed = append(cr.Missed, l.Scenario)
			continue
		}
		cr.Detected++
		ttd := l.detectedAt.Sub(l.Onset).Minutes()
		cr.MeanTimeToDetect += ttd
		ttdSum += ttd
		ttdN++
		if l.ChangeID != "" {
			topKN++
			if l.topK {
				topKHit++
			}
		}
		if l.AffectedSeries > 1 {
			extra := float64(l.reports - 1)
			collapse := 1 - extra/float64(l.AffectedSeries-1)
			if collapse < 0 {
				collapse = 0
			}
			collapseSum += collapse
			collapseN++
		}
	}

	// Per-class rates.
	var totalPos, totalDet int
	for c, cr := range rep.Classes {
		if c.Positive() {
			totalPos += cr.PositiveLabels
			totalDet += cr.Detected
			if cr.PositiveLabels > 0 {
				cr.Recall = float64(cr.Detected) / float64(cr.PositiveLabels)
			}
			if cr.Detected > 0 {
				cr.MeanTimeToDetect /= float64(cr.Detected)
			}
			continue
		}
		// Negative classes: suppression by scenario.
		for _, sc := range s.Scenarios {
			if sc.Class == c && !leaked[sc.Name] {
				cr.Suppressed++
			}
		}
		if cr.Scenarios > 0 {
			cr.SuppressionRate = float64(cr.Suppressed) / float64(cr.Scenarios)
		}
		for _, sc := range s.Scenarios {
			if sc.Class == c && leaked[sc.Name] {
				cr.Leaks = append(cr.Leaks, sc.Name)
			}
		}
	}
	if dupCR := rep.Classes[ClassDuplicate]; dupCR != nil && collapseN > 0 {
		dupCR.DedupCollapseRate = collapseSum / float64(collapseN)
	}
	if topKN > 0 {
		rate := float64(topKHit) / float64(topKN)
		rep.TopKRootCause = rate
		if cr := rep.Classes[ClassRegression]; cr != nil {
			cr.TopKRootCause = rate
		}
	}

	if totalPos > 0 {
		rep.Recall = float64(totalDet) / float64(totalPos)
	}
	if n := rep.TruePositiveReports + rep.FalsePositiveReports; n > 0 {
		rep.Precision = float64(rep.TruePositiveReports) / float64(n)
	} else {
		rep.Precision = 1
	}
	for i := range bandStats {
		if bandStats[i].Labels > 0 {
			bandStats[i].Recall = float64(bandStats[i].Detected) / float64(bandStats[i].Labels)
		}
	}
	rep.RecallByMagnitude = bandStats
	rep.RecallFleetScale = bandStats[len(bandStats)-1].Recall
	if ttdN > 0 {
		rep.MeanTimeToDetect = ttdSum / float64(ttdN)
	}
	if collapseN > 0 {
		rep.DedupCollapseRate = collapseSum / float64(collapseN)
	} else {
		rep.DedupCollapseRate = 1
	}
	sort.Strings(rep.FalsePositiveDetails)
	return rep
}

// rankedWithin reports whether changeID appears in the regression's top-k
// root-cause candidates.
func rankedWithin(r *core.Regression, changeID string, k int) bool {
	if changeID == "" {
		return false
	}
	for i, c := range r.RootCauses {
		if i >= k {
			break
		}
		if c.ChangeID == changeID {
			return true
		}
	}
	return false
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path.
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport loads a report written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
