package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// sutScanConfig is the detection config both shipped binaries run in
// durable mode (cmd/fbdetect-worker with its default -hours 9, and the
// control plane's zero-value Scan): the reference must match it.
func sutScanConfig() core.Config {
	return core.Config{
		Threshold: 0.001,
		Windows: timeseries.WindowConfig{
			Historic: 5 * time.Hour, Analysis: 3 * time.Hour, Extended: time.Hour,
		},
	}
}

// Verdict phases: reports while the SUT ran live (phase B and the static
// re-sweeps) and reports of the one cold sweep after the restart.
const (
	phaseLive = "live"
	phaseCold = "cold"
)

// verdictSet is the run's reported (phase, metric, change point) tuples.
type verdictSet map[string]bool

func verdictKey(phase, metric string, cp time.Time) string {
	return phase + " " + metric + " " + cp.UTC().Format(time.RFC3339)
}

func (vs verdictSet) add(phase string, reported []wireVerdict) {
	for _, r := range reported {
		vs[verdictKey(phase, r.Metric, r.ChangePointTime)] = true
	}
}

func (vs verdictSet) sorted() []string {
	keys := make([]string, 0, len(vs))
	for k := range vs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// jaccard is |a∩b| / |a∪b|; two empty sets agree.
func jaccard(a, b verdictSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// referenceVerdicts replays the run's points and scan sequence through an
// in-process pipeline built from the same public constructors the
// binaries use. streams must be rewound copies carrying the tenant IDs the
// SUT assigned: the control plane namespaces metric IDs with them, and
// SOMDedup hashes the full ID.
func referenceVerdicts(w workload, streams []*stream) (verdictSet, error) {
	db := tsdb.New(time.Minute)
	pipe, err := core.NewPipeline(sutScanConfig(), db, nil, nil)
	if err != nil {
		return nil, err
	}
	prof := distributed.NewProfilesHandler(db, distributed.ProfilesOptions{})

	// ns puts a service name, or a metric ID that starts with one, into
	// the stream's tenant namespace the way the control plane does.
	ns := func(s *stream, name string) string {
		if s.tenantID == "" {
			return name
		}
		return s.tenantID + ":" + name
	}
	appendStep := func(step int) error {
		for _, s := range streams {
			if s.nd != nil {
				s.vs.next(s.micro)
				pts := make([]tsdb.Point, len(s.nd.series))
				at := stepTime(step)
				for i := range s.nd.series {
					pts[i] = tsdb.Point{ID: tsdb.MetricID(ns(s, s.nd.series[i].id)), T: at, V: microToFloat(s.micro[i])}
				}
				if _, err := db.AppendBatch(pts); err != nil {
					return err
				}
				continue
			}
			for _, p := range s.profs {
				// The handler is the only public route from profile
				// bytes to gCPU points, so the reference goes through it.
				path := "/profiles?service=" + url.QueryEscape(ns(s, p.service)) +
					"&time=" + url.QueryEscape(stepTime(step).Format(time.RFC3339))
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(p.body(step)))
				rec := httptest.NewRecorder()
				prof.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("reference /profiles: status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}
		return nil
	}
	sweep := func(p *core.Pipeline, phase string, at time.Time, out verdictSet) error {
		for _, s := range streams {
			for _, svc := range s.services() {
				res, err := p.ScanContext(context.Background(), ns(s, svc), at)
				if err != nil {
					return err
				}
				for _, r := range res.Reported {
					metric := strings.TrimPrefix(string(r.Metric), ns(s, ""))
					out[verdictKey(phase, metric, r.ChangePointTime)] = true
				}
			}
		}
		return nil
	}

	out := verdictSet{}
	for step := 0; step < w.phaseASteps; step++ {
		if err := appendStep(step); err != nil {
			return nil, err
		}
	}
	last := w.phaseASteps + w.cycles - 1
	for step := w.phaseASteps; step <= last; step++ {
		if err := appendStep(step); err != nil {
			return nil, err
		}
		if err := sweep(pipe, phaseLive, scanTimeAfter(step), out); err != nil {
			return nil, err
		}
	}
	for i := 0; i < staticSweeps; i++ {
		if err := sweep(pipe, phaseLive, scanTimeAfter(last), out); err != nil {
			return nil, err
		}
	}
	cold, err := core.NewPipeline(sutScanConfig(), db, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := sweep(cold, phaseCold, scanTimeAfter(last), out); err != nil {
		return nil, err
	}
	return out, nil
}

// Golden files pin seed 1's verdicts at scale 1 for the single-tenant
// workloads. tenant_mix has none: the control plane draws tenant IDs from
// crypto/rand, and those IDs reach SOMDedup's metric-ID hash, so its
// expected set exists only once the IDs are known.

type goldenFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Verdicts []string `json:"verdicts"` // "<phase> <metric> <change point RFC3339>"
}

func goldenPath(benchDir, workload string, seed int64) string {
	return filepath.Join(benchDir, "golden", fmt.Sprintf("%s.seed%d.json", workload, seed))
}

func hasGolden(w workload) bool { return w.binary == binWorker }

func loadGolden(benchDir string, w workload, seed int64) (verdictSet, bool) {
	if !hasGolden(w) {
		return nil, false
	}
	data, err := os.ReadFile(goldenPath(benchDir, w.name, seed))
	if err != nil {
		return nil, false
	}
	var g goldenFile
	if json.Unmarshal(data, &g) != nil || g.Workload != w.name || g.Seed != seed {
		return nil, false
	}
	out := verdictSet{}
	for _, k := range g.Verdicts {
		out[k] = true
	}
	return out, true
}

// writeGolden computes seed's verdicts from the reference, checks them
// against what was injected, and writes the golden file.
func writeGolden(benchDir string, w workload, seed int64) error {
	streams := newStreams(w, seed)
	set, err := referenceVerdicts(w, streams)
	if err != nil {
		return err
	}
	if err := checkInjected(streams, set); err != nil {
		return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	data, err := json.MarshalIndent(goldenFile{Workload: w.name, Seed: seed, Verdicts: set.sorted()}, "", "  ")
	if err != nil {
		return err
	}
	path := goldenPath(benchDir, w.name, seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkInjected asserts that a verdict set reports only series that carry
// an injected persistent step, and at least one per service that has one.
func checkInjected(streams []*stream, set verdictSet) error {
	stepped := map[string]bool{} // metric ID -> carries a persistent step
	wantService := map[string]bool{}
	for _, s := range streams {
		if s.nd != nil {
			for i := range s.nd.series {
				sp := &s.nd.series[i]
				if sp.class == classStep {
					stepped[sp.id] = true
					wantService[s.nd.services[sp.service]] = true
				}
			}
		}
		for _, p := range s.profs {
			for fn := range p.stepped {
				stepped[string(tsdb.ID(p.service, fn, "gcpu"))] = true
			}
			wantService[p.service] = true
		}
	}
	for _, key := range set.sorted() {
		metric := strings.Fields(key)[1]
		if !stepped[metric] {
			return fmt.Errorf("verdict %q is on a series with no injected step", key)
		}
		service, _, _ := tsdb.MetricID(metric).Parts()
		delete(wantService, service)
	}
	for svc := range wantService {
		return fmt.Errorf("service %s has injected steps and no report", svc)
	}
	return nil
}
