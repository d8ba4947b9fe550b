// Package report renders detection results as the human-readable tickets
// FBDetect files for developers: the regression's identity and magnitude,
// the detection context, ranked root-cause candidates, and the stage
// funnel. Output is plain text suitable for terminals and issue trackers.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/core"
)

// Ticket is a rendered regression report.
type Ticket struct {
	Title string
	Body  string
}

// ForRegression builds a ticket for a regression, resolving root-cause
// change IDs against log (which may be nil).
func ForRegression(r *core.Regression, log *changelog.Log) Ticket {
	var b strings.Builder
	entity := r.Entity
	if entity == "" {
		entity = "(service level)"
	}
	title := fmt.Sprintf("[fbdetect] %s regression in %s/%s: %s",
		r.Name, r.Service, entity, formatMagnitude(r))

	fmt.Fprintf(&b, "Metric:        %s\n", r.Metric)
	fmt.Fprintf(&b, "Detected by:   %s detection\n", r.Path)
	fmt.Fprintf(&b, "Change point:  %s\n", r.ChangePointTime.Format(time.RFC3339))
	fmt.Fprintf(&b, "Before:        %.6g\n", r.Before)
	fmt.Fprintf(&b, "After:         %.6g\n", r.After)
	fmt.Fprintf(&b, "Magnitude:     %s\n", formatMagnitude(r))
	if r.PValue > 0 {
		fmt.Fprintf(&b, "p-value:       %.3g\n", r.PValue)
	}
	if r.Windows.Analysis != nil && r.Windows.Analysis.Len() > 0 {
		fmt.Fprintf(&b, "Analysis win:  %s  (^ marks the change point)\n",
			Sparkline(r.Windows.Analysis.Values, 60))
		fmt.Fprintf(&b, "               %s\n", changePointMarker(r, 60))
	}
	if len(r.RootCauses) == 0 {
		b.WriteString("\nNo root-cause candidate met the confidence bar.\n")
		b.WriteString("Review changes deployed shortly before the change point.\n")
	} else {
		b.WriteString("\nRoot-cause candidates (ranked):\n")
		for i, rc := range r.RootCauses {
			line := fmt.Sprintf("  %d. %s  score=%.2f", i+1, rc.ChangeID, rc.Score)
			if rc.Attribution >= 0 {
				line += fmt.Sprintf("  attribution=%.0f%%", rc.Attribution*100)
			}
			if log != nil {
				if c := log.ByID(rc.ChangeID); c != nil {
					line += fmt.Sprintf("  %q by %s", c.Title, orUnknown(c.Author))
				}
			}
			b.WriteString(line + "\n")
		}
	}
	return Ticket{Title: title, Body: b.String()}
}

func formatMagnitude(r *core.Regression) string {
	if r.Name == "gcpu" {
		return fmt.Sprintf("%+.4f%% absolute (%+.2f%% relative)",
			r.Delta*100, r.Relative*100)
	}
	return fmt.Sprintf("%+.6g (%+.2f%% relative)", r.Delta, r.Relative*100)
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// sparkLevels are the eight block characters Sparkline quantizes into.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-width unicode sparkline, bucketing
// the series down to width points (mean per bucket) and quantizing each
// into eight levels between the series min and max. Constant series render
// as the lowest level.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if width > len(values) {
		width = len(values)
	}
	buckets := make([]float64, width)
	per := float64(len(values)) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(values) {
			hi = len(values)
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		buckets[i] = sum / float64(hi-lo)
	}
	min, max := buckets[0], buckets[0]
	for _, v := range buckets[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for i, v := range buckets {
		level := 0
		if max > min {
			level = int((v - min) / (max - min) * float64(len(sparkLevels)-1))
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}

// changePointMarker renders a caret under the sparkline column holding the
// regression's change point.
func changePointMarker(r *core.Regression, width int) string {
	n := r.Windows.Analysis.Len()
	if n == 0 {
		return ""
	}
	if width > n {
		width = n
	}
	col := r.ChangePoint * width / n
	if col >= width {
		col = width - 1
	}
	return strings.Repeat(" ", col) + "^"
}

// WriteFunnel renders the one-line stage funnel of a scan, or of a
// sweep's merged funnel.
func WriteFunnel(w io.Writer, f core.Funnel) error {
	_, err := fmt.Fprintf(w,
		"scan: %d change points (%d long-term) -> went-away %d -> seasonality %d -> threshold %d -> merged %d -> SOM %d -> pop-shift %d -> cost-shift %d -> reported %d\n",
		f.ChangePoints, f.LongTermChangePoints, f.AfterWentAway, f.AfterSeasonality,
		f.AfterThreshold, f.AfterSameMerger, f.AfterSOMDedup, f.AfterPopShift,
		f.AfterCostShift, f.AfterPairwise)
	return err
}

// WriteScan renders a full scan result: the funnel summary followed by
// one ticket per reported regression.
func WriteScan(w io.Writer, res *core.ScanResult, log *changelog.Log) error {
	if err := WriteFunnel(w, res.Funnel); err != nil {
		return err
	}
	for _, ps := range res.PopulationShifts {
		entity := ps.Entity
		if entity == "" {
			entity = "(service level)"
		}
		if _, err := fmt.Fprintf(w,
			"\npopulation shift (not a regression): %s %s %s %+.6g (%+.2f%%) at %s\n  %s (mix moved %.1f%%, composition %+.6g, behavior %+.6g over %d strata)\n",
			ps.Service, entity, ps.Name, ps.Delta, 100*ps.Relative,
			ps.ChangePointTime.Format(time.RFC3339), ps.Verdict.Reason,
			100*ps.Verdict.Decomp.MixChange, ps.Verdict.Decomp.Composition,
			ps.Verdict.Decomp.BehaviorPre, ps.Verdict.Decomp.Strata); err != nil {
			return err
		}
	}
	for _, r := range res.Reported {
		t := ForRegression(r, log)
		if _, err := fmt.Fprintf(w, "\n%s\n%s", t.Title, t.Body); err != nil {
			return err
		}
	}
	return nil
}
