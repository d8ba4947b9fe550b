package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/obs"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// Funnel counts the regression candidates surviving each pipeline stage,
// the quantity Table 3 reports, in execution order: the order of stages.
type Funnel struct {
	ChangePoints         int // short-term change points detected
	LongTermChangePoints int // long-term detections
	AfterWentAway        int
	AfterSeasonality     int
	AfterThreshold       int
	AfterSameMerger      int
	AfterSOMDedup        int
	AfterPopShift        int // candidates not explained by a population mix change
	AfterCostShift       int
	AfterPairwise        int // new groups reported this scan
}

// Add accumulates another funnel's counts.
func (f *Funnel) Add(o Funnel) {
	for i := range stages {
		if count := stages[i].count; count != nil {
			*count(f) += *count(&o)
		}
	}
}

// ScanResult is the outcome of one pipeline scan.
type ScanResult struct {
	// Reported holds the representative regressions newly reported this
	// scan (one per new PairwiseDedup group).
	Reported []*Regression
	// PopulationShifts holds candidates reclassified as population
	// mix-shifts by the pop-shift stage (suppressed from Reported).
	// Always nil when Config.PopShift.Enabled is false.
	PopulationShifts []*PopulationShift
	// Funnel counts candidates per stage.
	Funnel Funnel
}

// Pipeline wires the FBDetect stages together (Figure 6) and carries
// cross-scan state: the SameRegressionMerger's memory and the
// PairwiseDeduper's groups.
type Pipeline struct {
	cfg         Config
	db          *tsdb.DB
	log         *changelog.Log
	samples     SampleProvider
	domains     []DomainDetector
	merger      *SameRegressionMerger
	pairwise    *PairwiseDeduper
	checkpoints *checkpointCache // per-series detector checkpoints; nil = disabled
	obs         *pipelineObs     // nil until Instrument; nil-safe hooks

	// scratch pools the per-worker *scanScratch across scans, so a
	// continuously scanning pipeline decodes and detects in buffers that
	// were sized by its first sweep.
	scratch sync.Pool

	// scanWorkers bounds the per-metric detection fan-out of one scan:
	// scanConcurrency, which tests vary.
	scanWorkers int

	// Test hooks, nil outside tests: viewOpened runs on every view a scan
	// opens, before anything is materialised; viewReleased gets the view's
	// value buffer at full capacity once the series' scan no longer reads
	// it.
	viewOpened   func(tsdb.View)
	viewReleased func([]float64)
}

// scanScratch is what one detection worker reuses from series to series:
// the window view's decode buffers, the change-point stage's working
// array and the went-away decision's buffers. Nothing in it survives a
// series — candidates are cloned off the view before the next one is
// opened — except the worker's counts, flushed once it stops.
type scanScratch struct {
	view     tsdb.Scratch
	suffix   []float64
	wentAway wentAwayScratch
	counts   scanCounts
}

// scanCounts tallies what one worker's series feed the per-scan counters.
// A quiet series takes about a microsecond, so an atomic add per series
// on a counter every worker shares would be a visible share of it.
type scanCounts struct {
	viewPoints, cpHits, cpMisses, screened int
}

func (p *Pipeline) getScratch() *scanScratch {
	if sc, ok := p.scratch.Get().(*scanScratch); ok {
		return sc
	}
	return new(scanScratch)
}

// NewPipeline builds a pipeline. log and samples may be nil, disabling
// root-cause analysis and cost-shift/overlap features respectively.
func NewPipeline(cfg Config, db *tsdb.DB, log *changelog.Log, samples SampleProvider) (*Pipeline, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, fmt.Errorf("core: nil tsdb")
	}
	cpSize := cfg.CheckpointCacheSize
	if cpSize == 0 {
		cpSize = defaultCheckpointCacheSize
	}
	var checkpoints *checkpointCache
	if cpSize > 0 {
		checkpoints = newCheckpointCache(cpSize)
	}
	return &Pipeline{
		cfg:         cfg,
		db:          db,
		log:         log,
		samples:     samples,
		domains:     DefaultDomainDetectors(),
		merger:      NewSameRegressionMerger(),
		pairwise:    NewPairwiseDeduper(nil),
		checkpoints: checkpoints,
		scanWorkers: scanConcurrency,
	}, nil
}

// AddDomainDetector registers a custom cost-domain detector (paper §5.4:
// "FBDetect allows developers to create custom detectors").
func (p *Pipeline) AddDomainDetector(d DomainDetector) {
	p.domains = append(p.domains, d)
}

// Groups exposes the PairwiseDeduper's accumulated regression groups.
func (p *Pipeline) Groups() []*RegressionGroup { return p.pairwise.Groups() }

// scanConcurrency bounds the per-metric detection fan-out within one scan.
const scanConcurrency = 8

// metricScan is the stage 1-3 outcome for one metric.
type metricScan struct {
	funnel     Funnel
	candidates []*Regression
}

// scanMetric runs stages 1-3 (short-term change point, went-away,
// seasonality) plus the long-term path for one metric. The window is
// pinned as a view — grid placement, stamp, the head's share and the
// sealed chunks behind the rest, under one hold of the shard lock — and a
// checkpoint hit returns the memoized outcome without decoding anything:
// the warm path for unchanged series. On a miss the detection stages run
// over the view (detectMetric) and the outcome is checkpointed under the
// pinned stamp.
func (p *Pipeline) scanMetric(metric tsdb.MetricID, from, scanTime time.Time, sc *scanScratch) metricScan {
	view, err := p.db.View(metric, from, scanTime, &sc.view)
	if err != nil {
		return metricScan{}
	}
	if cached, ok := p.checkpoints.get(metric, view.Stamp.Epoch, view.Start.UnixNano(), view.N); ok {
		sc.counts.cpHits++
		return cached
	}
	if p.checkpoints != nil {
		sc.counts.cpMisses++
	}
	series := view.Series()
	m, ok := p.detectMetric(metric, view, series, scanTime, sc)
	if p.viewReleased != nil {
		p.viewReleased(series.Values[:cap(series.Values)])
	}
	if ok {
		p.checkpoints.put(metric, view.Stamp.Epoch, view.Start.UnixNano(), view.N, m)
	}
	return m
}

// detectMetric runs the per-metric detection stages over a freshly
// pinned view, decoding only what the stage in front of it reads: the
// analysis window for the change-point search, then the historic and
// extended windows only once a change point (or the long-term path) has a
// filter that reads them. They fill the same buffer in place, so the
// windows cut before the search become whole. The expensive decomposition
// work both detection paths share is computed at most once per scan. It
// reports false, with no outcome worth a checkpoint, when the series does
// not cover the windows or a chunk fails to decode.
func (p *Pipeline) detectMetric(metric tsdb.MetricID, view tsdb.View, series *timeseries.Series, scanTime time.Time, sc *scanScratch) (m metricScan, ok bool) {
	ws, err := p.cfg.Windows.Cut(series, scanTime)
	if err != nil {
		return m, false // insufficient data for this metric
	}
	if p.viewOpened != nil {
		p.viewOpened(view)
	}
	lo := series.IndexOf(ws.Analysis.Start)
	hi := lo + ws.Analysis.Len()
	if view.Materialize(lo, hi) != nil {
		return m, false
	}
	sc.counts.viewPoints += hi - lo
	whole := false
	materializeRest := func() bool {
		if !whole {
			if view.Materialize(0, view.N) != nil {
				return false
			}
			sc.counts.viewPoints += view.N - (hi - lo)
			whole = true
		}
		return true
	}
	var stlRes *stlResult
	stlFor := func() *stlResult {
		if stlRes == nil {
			stlRes = computeSTL(p.cfg.Seasonality, ws.Full(), p.cfg.LongTerm)
		}
		return stlRes
	}
	start := p.obs.timed()
	r, screened := detectShortTerm(p.cfg, metric, ws, scanTime, &sc.suffix)
	p.obs.observe(StageChangePoint, start)
	if screened {
		sc.counts.screened++
	}
	if r != nil {
		// r.Windows aliases the view's buffer, and every filter from here
		// on reads the historic or the extended window.
		if !materializeRest() {
			return metricScan{}, false
		}
		m.funnel.ChangePoints++
		start = p.obs.timed()
		verdict := checkWentAway(p.cfg.WentAway, r, &sc.wentAway)
		p.obs.observe(StageWentAway, start)
		p.obs.wentAwayDecided(verdict)
		if verdict.Keep {
			m.funnel.AfterWentAway++
			start = p.obs.timed()
			keep := checkSeasonalityWith(p.cfg.Seasonality, r, stlFor()).Keep
			p.obs.observe(StageSeasonality, start)
			if keep {
				m.funnel.AfterSeasonality++
				m.candidates = append(m.candidates, r)
			}
		}
	}
	// Long-term path: seasonality first (inside the detector), no
	// went-away stage. It decomposes the whole window of every series.
	if p.cfg.LongTerm {
		if !materializeRest() {
			return metricScan{}, false
		}
		start = p.obs.timed()
		var r *Regression
		if ws.Full().Len() >= longTermMinPoints {
			r = detectLongTermWith(p.cfg, metric, ws, scanTime, stlFor())
		}
		p.obs.observe(StageLongTerm, start)
		if r != nil {
			m.funnel.LongTermChangePoints++
			m.candidates = append(m.candidates, r)
		}
	}
	// Detach candidates from the scratch-backed view: their windows must
	// outlive the buffer's next reuse.
	return m.clone(), true
}

// Scan runs one detection pass over every metric of the service at
// scanTime, following the Figure 6 stage order: change-point detection,
// went-away, seasonality, threshold, SameRegressionMerger, SOMDedup,
// cost-shift, PairwiseDedup, root-cause analysis. Metrics without enough
// data are skipped silently (new services warm up).
func (p *Pipeline) Scan(service string, scanTime time.Time) (*ScanResult, error) {
	return p.ScanContext(context.Background(), service, scanTime)
}

// ScanContext is Scan with a caller-controlled context, checked between
// series and once more before the SameRegressionMerger records anything:
// when a coordinator cancels a scan (its hedged twin won, or the sweep
// was aborted) the worker stops burning CPU on an answer nobody will
// read, without leaving state that would make a retry miss regressions.
//
// A scan is two halves: detectService runs the per-metric detection
// stages, which touch no cross-scan state, and finalizeService the
// stateful deduplication and reporting stages.
func (p *Pipeline) ScanContext(ctx context.Context, service string, scanTime time.Time) (*ScanResult, error) {
	d, err := p.detectService(ctx, service, scanTime)
	if err != nil {
		return nil, err
	}
	return p.finalizeService(ctx, d)
}

// serviceDetect carries one service's detection outcome from the detect
// half of a scan to the finalize half, plus what the finalize stages
// share (gathered after the merger).
type serviceDetect struct {
	service    string
	scanTime   time.Time
	metrics    []tsdb.MetricID
	candidates []*Regression
	res        *ScanResult
	trace      *obs.Trace
	root       *obs.Span

	before, after *stacktrace.SampleSet
	popularity    map[string]float64
}

// discard finishes the trace of a detect whose finalize will never run
// (the scan was cancelled during detection), so the trace ring buffer is
// not left holding an unfinished trace.
func (d *serviceDetect) discard() {
	if d.trace == nil {
		return
	}
	d.root.Annotate("discarded", "true")
	d.root.Finish()
	d.trace.Finish()
}

// detectService runs stages 1-3 plus the long-term path for every metric
// of the service. It reads the store and the checkpoint cache and touches
// none of the pipeline's cross-scan deduplication state.
func (p *Pipeline) detectService(ctx context.Context, service string, scanTime time.Time) (*serviceDetect, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := &serviceDetect{
		service:  service,
		scanTime: scanTime,
		metrics:  p.alertableMetrics(service),
		res:      &ScanResult{},
	}
	metrics := d.metrics

	// When instrumented, every scan leaves a trace in the ring buffer and
	// feeds the stage-latency histograms and funnel counters; the funnel
	// counters are derived from res.Funnel itself so the metrics can never
	// drift from Monitor.Stats().
	if p.obs != nil {
		d.trace = p.obs.tracer.StartTrace("scan " + service)
		d.trace.Annotate("service", service)
		d.trace.Annotate("scan_time", scanTime.Format(time.RFC3339))
		d.root = d.trace.StartSpan("scan", nil)
		d.root.Annotate("metrics", attr(len(metrics)))
	}

	// Stages 1-3 are independent per metric; scan them concurrently, as
	// the production system fans series out across a serverless platform
	// (paper §5.1: "scanning different time series in parallel"). Results
	// are collected per metric index so the downstream order — and thus
	// deduplication and reporting — stays deterministic.
	from := scanTime.Add(-p.cfg.Windows.Total())
	detectSpan := d.trace.StartSpan("detect", d.root)
	perMetric := make([]metricScan, len(metrics))
	workers := p.scanWorkers
	if workers > len(metrics) {
		workers = len(metrics)
	}
	// Workers claim metrics off a shared cursor: a series scan is ~10 us,
	// too little to pay a channel handoff for. Each holds one pooled
	// scratch for the whole scan; views are consumed within scanMetric, so
	// the buffers recycle across its metrics.
	var next atomic.Int64
	cancelled := ctx.Done()
	work := func() {
		sc := p.getScratch()
		defer func() {
			p.obs.scanCounted(sc.counts)
			sc.counts = scanCounts{}
			p.scratch.Put(sc)
		}()
		for {
			select {
			case <-cancelled:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= len(metrics) {
				return
			}
			perMetric[i] = p.scanMetric(metrics[i], from, scanTime, sc)
		}
	}
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	} else {
		work()
	}
	if err := ctx.Err(); err != nil {
		detectSpan.Finish()
		d.discard()
		return nil, err
	}

	for _, m := range perMetric {
		d.res.Funnel.Add(m.funnel)
		d.candidates = append(d.candidates, m.candidates...)
	}
	detectSpan.Annotate("candidates", attr(len(d.candidates)))
	detectSpan.Finish()
	return d, nil
}

// finalizeService runs the scan-level stages of the pipeline table on one
// service's detection outcome. They read and mutate cross-scan state (the
// merger's memory, the pairwise deduper's groups), so finalizes must
// happen one at a time, in a deterministic service order.
func (p *Pipeline) finalizeService(ctx context.Context, d *serviceDetect) (*ScanResult, error) {
	res := d.res
	if p.obs != nil {
		defer p.finishScan(d)
	}
	survivors := d.candidates
	for i := range stages {
		st := &stages[i]
		if st.run == nil {
			continue // a per-series stage, run by detectMetric
		}
		if err := ctx.Err(); st.commit && err != nil {
			return nil, err
		}
		if st.enabled == nil || st.enabled(p) {
			survivors = p.runStage(st, d, survivors)
		}
		if st.count != nil {
			*st.count(&res.Funnel) = len(survivors)
		}
		if st.commit && len(survivors) == 0 {
			return res, nil
		}
	}
	res.Reported = survivors
	return res, nil
}

// HasService reports whether the pipeline's store holds any metric for
// the service — what a scan worker checks before accepting a request.
func (p *Pipeline) HasService(service string) bool {
	return len(p.db.Metrics(service)) > 0
}
