package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// pipelineState is the serialized cross-scan state: which regressions the
// SameRegressionMerger has seen and the PairwiseDeduper's groups. With it,
// a restarted monitor does not re-report regressions it already filed —
// production FBDetect persists the equivalent in its result store.
type pipelineState struct {
	Version int                    `json:"version"`
	Seen    map[string][]time.Time `json:"seen"`
	Groups  []groupState           `json:"groups"`
}

type groupState struct {
	ID      int           `json:"id"`
	Members []memberState `json:"members"`
}

type memberState struct {
	Metric          string    `json:"metric"`
	ChangePoint     int       `json:"change_point"`
	ChangePointTime time.Time `json:"change_point_time"`
	Before          float64   `json:"before"`
	After           float64   `json:"after"`
	Delta           float64   `json:"delta"`
	Relative        float64   `json:"relative"`
	// AnalysisStart/StepSeconds/AnalysisValues reconstruct the analysis
	// window series PairwiseDedup correlates new regressions against.
	AnalysisStart  time.Time `json:"analysis_start"`
	StepSeconds    float64   `json:"step_seconds"`
	AnalysisValues []float64 `json:"analysis_values"`
}

const stateVersion = 1

// SaveState serializes the pipeline's cross-scan state to w as JSON.
func (p *Pipeline) SaveState(w io.Writer) error {
	st := pipelineState{Version: stateVersion, Seen: p.merger.seen}
	for _, g := range p.pairwise.groups {
		gs := groupState{ID: g.ID}
		for _, m := range g.Members {
			gs.Members = append(gs.Members, memberState{
				Metric:          string(m.Metric),
				ChangePoint:     m.ChangePoint,
				ChangePointTime: m.ChangePointTime,
				Before:          m.Before,
				After:           m.After,
				Delta:           m.Delta,
				Relative:        m.Relative,
				AnalysisStart:   m.Windows.Analysis.Start,
				StepSeconds:     m.Windows.Analysis.Step.Seconds(),
				AnalysisValues:  m.Windows.Analysis.Values,
			})
		}
		st.Groups = append(st.Groups, gs)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(st)
}

// LoadState restores cross-scan state saved by SaveState, replacing the
// pipeline's current merger memory and deduplication groups.
func (p *Pipeline) LoadState(r io.Reader) error {
	var st pipelineState
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("core: decoding state: %w", err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("core: unsupported state version %d", st.Version)
	}
	merger := NewSameRegressionMerger()
	if st.Seen != nil {
		merger.seen = st.Seen
	}
	pairwise := NewPairwiseDeduper(nil)
	for _, gs := range st.Groups {
		g := &RegressionGroup{ID: gs.ID}
		for _, ms := range gs.Members {
			reg := NewRegressionRecord(tsdb.MetricID(ms.Metric))
			reg.ChangePoint = ms.ChangePoint
			reg.ChangePointTime = ms.ChangePointTime
			reg.Before, reg.After = ms.Before, ms.After
			reg.Delta, reg.Relative = ms.Delta, ms.Relative
			reg.Group = gs.ID
			reg.Windows.Analysis = timeseries.New(ms.AnalysisStart,
				time.Duration(ms.StepSeconds*float64(time.Second)), ms.AnalysisValues)
			// Historic/extended windows are not needed for pairwise
			// similarity; leave them empty.
			reg.Windows.Historic = &timeseries.Series{}
			reg.Windows.Extended = &timeseries.Series{}
			g.Members = append(g.Members, reg)
		}
		pairwise.groups = append(pairwise.groups, g)
	}
	p.merger = merger
	p.pairwise = pairwise
	return nil
}
