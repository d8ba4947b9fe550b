package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fbdetect/internal/core"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w        workload // already scaled
	seed     int64
	atScale1 bool // golden files apply only to the committed sizes
	benchDir string
	outDir   string
	newSUT   func(w workload, dataDir, logPath string) sut
}

// runResult is everything one run measured.
type runResult struct {
	workload  string
	seed      int64
	values    map[string]float64 // metric name -> value; absent = not measured
	samples   map[string]int     // sample count behind a percentile metric
	attempted int64
	failed    int64
	errs      []string // first few failures, for the human reading the output
	notes     []string
}

// ops counts every operation the run attempted and how many succeeded.
type ops struct {
	attempted, ok atomic.Int64
	mu            sync.Mutex
	errs          []string
}

func (o *ops) record(err error) bool {
	o.attempted.Add(1)
	if err == nil {
		o.ok.Add(1)
		return true
	}
	o.mu.Lock()
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
	o.mu.Unlock()
	return false
}

// failedLatencyMS is what a failed request contributes to a latency
// percentile: the client timeout, slower than any request that succeeded.
const failedLatencyMS = float64(requestTimeout / time.Millisecond)

// env is a set-up SUT with its inputs, ready for the first timed request.
type env struct {
	sut     sut
	dataDir string
	streams []*stream
	admin   *http.Client
	steps   int // steps already sent (the warm-up)
}

func (e *env) teardown() {
	e.sut.kill()
	children.removeDir(e.dataDir)
	for _, s := range e.streams {
		s.client.CloseIdleConnections()
	}
	e.admin.CloseIdleConnections()
}

// setup performs everything between "workload start" and "first timed
// request": data directory, SUT spawn, /healthz, tenants, input
// generation from the seed, and the untimed warm-up requests.
func setup(ctx context.Context, cfg runConfig, o *ops, n int) (*env, error) {
	w := cfg.w
	dataDir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d-%d", w.name, os.Getpid(), n))
	os.RemoveAll(dataDir)
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	children.addDir(dataDir)
	e := &env{dataDir: dataDir, admin: &http.Client{Timeout: requestTimeout}}
	e.sut = cfg.newSUT(w, dataDir, filepath.Join(cfg.outDir, w.name+".log"))
	if err := e.sut.start(ctx); err != nil {
		e.teardown()
		return nil, err
	}
	e.streams = newStreams(w, cfg.seed)
	for _, s := range e.streams {
		if s.spec.tenant == "" {
			continue
		}
		if err := registerTenant(e, s); err != nil {
			e.teardown()
			return nil, err
		}
	}
	// Warm-up: whole steps, until at least warmupRequests have gone out.
	perStep := 0
	for _, s := range e.streams {
		perStep += s.requestsPerStep()
	}
	e.steps = (warmupRequests + perStep - 1) / perStep
	for step := 0; step < e.steps; step++ {
		for _, s := range e.streams {
			for _, r := range s.stepRequests(step) {
				o.record(s.ingest(e.sut.baseURL(), r))
				s.recycle(r)
			}
		}
	}
	return e, nil
}

func registerTenant(e *env, s *stream) error {
	body, _ := json.Marshal(map[string]any{"name": s.spec.tenant})
	req, err := http.NewRequest(http.MethodPost, e.sut.baseURL()+"/admin/tenants", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+adminKey)
	resp, err := e.admin.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var t struct {
		ID  string `json:"id"`
		Key string `json:"key"`
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering tenant %s: %s", s.spec.tenant, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return err
	}
	s.tenantID, s.key = t.ID, t.Key
	return nil
}

// runState is the state one execution of the script carries from phase to phase.
type runState struct {
	cfg    runConfig
	w      workload
	res    *runResult
	o      *ops
	e      *env
	base   string
	pid    int   // the SUT's, until the crash tail replaces the process
	series int   // series one sweep covers
	sent   int64 // points acked so far, warm-up included
	live   verdictSet

	// /metrics.json readings: before and after phase A, after phase B,
	// before and after the static re-sweeps.
	snap [5]scrape
	// SUT CPU seconds over phase A, over phase B, and inside phase B's sweeps.
	cpuA, cpuB, cpuSweeps float64
	wallA, wallB          float64
	cycles                float64
	respBytes             float64
	scans                 int
}

// runWorkload executes the whole script once and returns what it measured.
// It never panics on SUT misbehaviour: failures are counted and reported.
func runWorkload(ctx context.Context, cfg runConfig) *runResult {
	r := &runState{cfg: cfg, w: cfg.w, o: &ops{}, live: verdictSet{},
		res: &runResult{workload: cfg.w.name, seed: cfg.seed, values: map[string]float64{}, samples: map[string]int{}}}
	hostTotal0, hostSteal0 := hostCPU()
	err := r.script(ctx)
	if r.e != nil {
		r.e.teardown()
	}
	if err != nil {
		r.o.record(err)
		r.res.values["verdicts_correct_share"] = 0
	}
	hostTotal1, hostSteal1 := hostCPU()
	r.res.values["host.steal_share"] = ratio(hostSteal1-hostSteal0, hostTotal1-hostTotal0)
	r.res.attempted = r.o.attempted.Load()
	r.res.failed = r.res.attempted - r.o.ok.Load()
	r.res.errs = r.o.errs
	r.res.values["ok_ops_share"] = ratio(float64(r.o.ok.Load()), float64(r.res.attempted))
	return r.res
}

// script is the order of the run. An error ends it early: the SUT could
// not be set up or restarted, or the workload's timeout ran out.
func (r *runState) script(ctx context.Context) error {
	if err := r.setUp(ctx); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	genCPU0 := cpuSeconds(os.Getpid())
	if err := r.phaseA(ctx); err != nil {
		return fmt.Errorf("phase A: %w", err)
	}
	if err := r.phaseB(ctx); err != nil {
		return fmt.Errorf("phase B: %w", err)
	}
	v := r.res.values
	v["loadgen.cpu_share"] = ratio(cpuSeconds(os.Getpid())-genCPU0, r.wallA+r.wallB)
	v["loadgen.rss_mb"] = statusKB(os.Getpid(), "VmHWM") / 1024
	ingestShare := ratio(r.cpuA+r.cpuB-r.cpuSweeps, r.cpuA+r.cpuB)
	r.res.notes = append(r.res.notes,
		fmt.Sprintf("phase A %.2fs wall, %.2fs SUT CPU; phase B %.2fs wall, %.2fs SUT CPU of which %.2fs in sweeps; SUT busy %.0f%% of %d cores in phase B",
			r.wallA, r.cpuA, r.wallB, r.cpuB, r.cpuSweeps, 100*ratio(r.cpuB, r.wallB*float64(nproc())), nproc()),
		fmt.Sprintf("ingest CPU share of phases A+B: %.0f%%", 100*ingestShare))

	// tenant_mix only: one async backfill polled to completion, and one
	// scan across the tenant boundary that has to be refused.
	if r.w.backfillPoints > 0 {
		r.sent += r.backfill(r.e.streams[0], r.w.backfillPoints)
	}
	if len(r.e.streams) > 1 && r.e.streams[0].spec.tenant != "" {
		other := r.e.streams[1].services()[0]
		_, _, err := r.e.streams[0].scan(r.base, other, r.lastScan(), http.StatusNotFound)
		r.o.record(err)
	}
	if err := r.tail(ctx); err != nil {
		return err
	}
	r.counters()
	return r.verify()
}

// setUp runs set-up w.setups times and keeps the last; setup_s is the median.
func (r *runState) setUp(ctx context.Context) error {
	var times []float64
	for i := 0; i < r.w.setups; i++ {
		if r.e != nil {
			r.e.teardown()
		}
		start := time.Now()
		var err error
		if r.e, err = setup(ctx, r.cfg, r.o, i); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.res.values["setup_s"] = median(times)
	r.res.samples["setup_s"] = len(times)
	r.base, r.pid = r.e.sut.baseURL(), r.e.sut.pid()
	for _, s := range r.e.streams {
		r.series += s.seriesCount()
	}
	r.sent = int64(r.e.steps) * int64(r.series)
	return nil
}

func (r *runState) scrape() scrape {
	sc, err := scrapeMetrics(r.e.admin, r.base)
	if err != nil {
		r.o.record(fmt.Errorf("/metrics.json: %w", err))
		return scrape{}
	}
	return sc
}

func (r *runState) lastScan() time.Time { return scanTimeAfter(r.w.phaseASteps + r.w.cycles - 1) }

// phaseA is the closed loop: one request in flight per stream. A producer
// renders bodies ahead of the sender, so that encoding never sits between
// an ack and the next send.
func (r *runState) phaseA(ctx context.Context) error {
	r.snap[0] = r.scrape()
	cpu0, start := cpuSeconds(r.pid), time.Now()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		ackMS  []float64
		points atomic.Int64
	)
	for _, s := range r.e.streams {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			// Depth 4 keeps the producer a few bodies ahead without
			// holding more than a few hundred KB.
			queue := make(chan *request, 4)
			go func() {
				defer close(queue)
				for step := r.e.steps; step < r.w.phaseASteps; step++ {
					for _, req := range s.stepRequests(step) {
						select {
						case queue <- req:
						case <-ctx.Done():
							return
						}
					}
				}
			}()
			lat := make([]float64, 0, (r.w.phaseASteps-r.e.steps)*s.requestsPerStep())
			for req := range queue {
				if ctx.Err() != nil {
					continue // drain so the producer can finish
				}
				t0 := time.Now()
				err := s.ingest(r.base, req)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if r.o.record(err) {
					points.Add(int64(req.points))
				} else {
					ms = failedLatencyMS
				}
				lat = append(lat, ms)
				s.recycle(req)
			}
			mu.Lock()
			ackMS = append(ackMS, lat...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	r.wallA = time.Since(start).Seconds()
	r.cpuA = cpuSeconds(r.pid) - cpu0
	r.snap[1] = r.scrape()
	if err := ctx.Err(); err != nil {
		return err
	}
	r.sent += points.Load()
	v := r.res.values
	v["points_per_s"] = ratio(float64(points.Load()), r.wallA)
	v["ack_p50_ms"] = quantile(ackMS, 0.50)
	v["loadgen.ack_p90_ms"] = quantile(ackMS, 0.90)
	v["loadgen.ack_p99_ms"] = quantile(ackMS, 0.99)
	v["loadgen.ack_samples"] = float64(len(ackMS))
	r.res.samples["ack_p50_ms"] = len(ackMS)
	v["ingest_cpu_us_per_point"] = ratio(r.cpuA*1e6, float64(points.Load()))
	return nil
}

// sweepAll scans every service of every stream at one scan time, in a
// fixed order, and files what is reported under phase.
func (r *runState) sweepAll(at time.Time, phase string, into verdictSet) {
	for _, s := range r.e.streams {
		for _, svc := range s.services() {
			reported, n, err := s.scan(r.base, svc, at, http.StatusOK)
			if r.o.record(err) {
				into.add(phase, reported)
				r.respBytes += float64(n)
				r.scans++
			}
		}
	}
}

// phaseB is the open loop. Tick k is due at start + k*period whatever the
// SUT does; its step is ingested, then every service is swept at the scan
// time that makes that step the newest point. Lag runs from the due time,
// so a late tick shows up in it.
func (r *runState) phaseB(ctx context.Context) error {
	var (
		points                atomic.Int64
		lagMS, lateMS, sweepS []float64
	)
	sendStep := func(reqs [][]*request) {
		var wg sync.WaitGroup
		for i, s := range r.e.streams {
			wg.Add(1)
			go func(s *stream, reqs []*request) {
				defer wg.Done()
				for _, req := range reqs {
					if r.o.record(s.ingest(r.base, req)) {
						points.Add(int64(req.points))
					}
					s.recycle(req)
				}
			}(s, reqs[i])
		}
		wg.Wait()
	}
	render := func(step int) [][]*request {
		reqs := make([][]*request, len(r.e.streams))
		for i, s := range r.e.streams {
			reqs[i] = s.stepRequests(step)
		}
		return reqs
	}
	cpu0, start := cpuSeconds(r.pid), time.Now()
	next := render(r.w.phaseASteps)
	for k := 0; k < r.w.cycles; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := r.w.phaseASteps + k
		due := start.Add(time.Duration(k) * r.w.cyclePeriod)
		time.Sleep(time.Until(due))
		lateMS = append(lateMS, float64(time.Since(due))/float64(time.Millisecond))
		sendStep(next)
		c0, t0 := cpuSeconds(r.pid), time.Now()
		r.sweepAll(scanTimeAfter(step), phaseLive, r.live)
		t1 := time.Now()
		r.cpuSweeps += cpuSeconds(r.pid) - c0
		sweepS = append(sweepS, t1.Sub(t0).Seconds()/float64(r.series)*1e5)
		lagMS = append(lagMS, float64(t1.Sub(due))/float64(time.Millisecond))
		if k+1 < r.w.cycles {
			next = render(step + 1) // ahead of the next tick, not inside it
		}
	}
	r.wallB = time.Since(start).Seconds()
	r.cpuB = cpuSeconds(r.pid) - cpu0
	r.sent += points.Load()
	r.snap[2] = r.scrape()
	r.cycles = float64(len(sweepS))

	v := r.res.values
	v["sweep_s_per_100k_series"] = median(sweepS)
	v["sweep_cpu_s_per_100k_series"] = ratio(r.cpuSweeps, r.cycles*float64(r.series)) * 1e5
	v["verdict_lag_p50_ms"] = quantile(lagMS, 0.50)
	v["loadgen.verdict_lag_p90_ms"] = quantile(lagMS, 0.90)
	r.res.samples["sweep_s_per_100k_series"], r.res.samples["verdict_lag_p50_ms"] = len(sweepS), len(sweepS)
	v["loadgen.cycle_samples"] = r.cycles
	v["loadgen.late_p90_ms"] = quantile(lateMS, 0.90)
	edge := min(10, len(lateMS)/2)
	v["loadgen.backlog_growth_ms"] = mean(lateMS[len(lateMS)-edge:]) - mean(lateMS[:edge])
	v["distributed.scan_response_bytes"] = ratio(r.respBytes, float64(r.scans))
	return nil
}

// tail is what follows the live cycles: the static re-sweeps, the crash
// and restart, the cold sweep, and a look at the directory left behind.
func (r *runState) tail(ctx context.Context) error {
	v := r.res.values
	// Re-sweep at the unchanged scan time. Nothing moved, so this is the
	// checkpoint-hit path the live cycles never take.
	r.snap[3] = r.scrape()
	var staticS []float64
	for i := 0; i < staticSweeps; i++ {
		t0 := time.Now()
		r.sweepAll(r.lastScan(), phaseLive, r.live)
		staticS = append(staticS, time.Since(t0).Seconds()/float64(r.series)*1e5)
	}
	r.snap[4] = r.scrape()
	v["core.static_sweep_s_per_100k_series"] = median(staticS)

	// The pause lets the batch policy's 50 ms flush timer run out, so that
	// what was acked is also on disk before the kill.
	time.Sleep(150 * time.Millisecond)
	v["rss_peak_mb"] = statusKB(r.pid, "VmHWM") / 1024
	walSize := walBytes(r.e.sut.storeDir())
	r.e.sut.kill()
	t0 := time.Now()
	err := r.e.sut.start(ctx)
	recoverMS := float64(time.Since(t0)) / float64(time.Millisecond)
	if !r.o.record(err) {
		return errors.New("restart after SIGKILL failed")
	}
	r.base = r.e.sut.baseURL()
	v["wal.recover_ms"] = recoverMS
	v["wal.recover_ns_per_point"] = ratio(recoverMS*1e6, float64(r.sent))
	v["wal_bytes_per_point"] = ratio(float64(walSize), float64(r.sent))
	t0 = time.Now()
	r.sweepAll(r.lastScan(), phaseCold, r.live)
	v["core.cold_sweep_s_per_100k_series"] = time.Since(t0).Seconds() / float64(r.series) * 1e5
	r.o.record(r.e.sut.stop())

	// The directory, read in-process: every acked point has to be in it.
	db, _, err := wal.Recover(r.e.sut.storeDir(), time.Minute, tsdb.Options{}, nil)
	if r.o.record(err) {
		st := db.StorageStats()
		v["bytes_per_point"] = ratio(float64(st.TotalBytes()), float64(st.Points))
		v["tsdb.sealed_chunks"] = float64(st.SealedChunks)
		if st.Points != r.sent {
			r.o.record(fmt.Errorf("recovered directory holds %d points, %d were acked", st.Points, r.sent))
		}
	}
	return nil
}

// counters turns the SUT's own /metrics.json counters into per-phase deltas.
func (r *runState) counters() {
	v := r.res.values
	dA := func(key string) float64 { return r.snap[1].delta(r.snap[0], key) }
	dB := func(key string) float64 { return r.snap[2].delta(r.snap[1], key) }
	v["wal.fsyncs_per_kbatch"] = ratio(dA(wal.MetricFsyncs), dA(wal.MetricAppendedRecords)) * 1000
	v["wal.group_commit_batches_per_fsync"] = ratio(dA(wal.MetricAppendedRecords), dA(wal.MetricFsyncs))
	v["wal.bytes_per_point"] = ratio(dA(wal.MetricAppendedBytes), dA(wal.MetricAppendedPoints))
	v["tsdb.view_points_per_sweep"] = ratio(dB(core.MetricViewPoints), r.cycles)
	for _, st := range core.PipelineStages {
		key := scrapeKey(core.MetricStageDuration, map[string]string{"stage": st}) + ":sum"
		v["core.stage."+st+"_ms_per_sweep"] = ratio(dB(key), r.cycles) * 1000
	}
	stageOut := func(st string) string {
		return scrapeKey(core.MetricStageOut, map[string]string{"stage": st})
	}
	v["core.changepoints_per_sweep"] = ratio(dB(stageOut(core.StageChangePoint)), r.cycles)
	v["core.reported_total"] = dB(stageOut(core.StagePairwise))
	hitShare := func(after, before scrape, hits, misses string) float64 {
		h, m := after.delta(before, hits), after.delta(before, misses)
		return ratio(h, h+m)
	}
	v["core.checkpoint_hit_share"] = hitShare(r.snap[2], r.snap[1], core.MetricCheckpointHits, core.MetricCheckpointMiss)
	v["core.static_checkpoint_hit_share"] = hitShare(r.snap[4], r.snap[3], core.MetricCheckpointHits, core.MetricCheckpointMiss)
	v["core.stl_cache_hit_share"] = hitShare(r.snap[2], r.snap[1], core.MetricSTLCacheHits, core.MetricSTLCacheMisses)
}

// verify checks the verdicts: against the golden file when this seed has
// one, else against the in-process reference fed the same points and scans.
func (r *runState) verify() error {
	want, ok := verdictSet(nil), false
	if r.cfg.atScale1 {
		want, ok = loadGolden(r.cfg.benchDir, r.w, r.cfg.seed)
	}
	source := "golden file"
	if !ok {
		source = "in-process reference"
		ref := make([]*stream, len(r.e.streams))
		for i, s := range r.e.streams {
			ref[i] = s.rewind()
		}
		var err error
		if want, err = referenceVerdicts(r.w, ref); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	r.res.values["verdicts_correct_share"] = jaccard(r.live, want)
	r.res.notes = append(r.res.notes, fmt.Sprintf("verdicts: %d reported, %d expected by the %s", len(r.live), len(want), source))
	return nil
}

// backfill submits one backfill operation as the stream's tenant and polls
// it every 20 ms until it is terminal. It returns the points written.
func (r *runState) backfill(s *stream, points int) int64 {
	base, o, res := r.base, r.o, r.res
	body, _ := json.Marshal(map[string]any{"kind": "backfill", "params": map[string]any{
		"service": "backfill", "entity": "bulk", "metric": "gcpu",
		"start": epoch.Format(time.RFC3339), "count": points, "base": 0.05, "batch": backfillBatch,
	}})
	start := time.Now()
	status, data, err := s.do(base, http.MethodPost, "/operations", "application/json", body)
	var op struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST /operations: status %d: %s", status, bytes.TrimSpace(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &op)
	}
	var pollMS []float64
	for deadline := start.Add(60 * time.Second); err == nil && op.Status != "succeeded"; {
		if op.Status == "failed" || time.Now().After(deadline) {
			err = fmt.Errorf("backfill operation %s: status %q: %s", op.ID, op.Status, op.Error)
			break
		}
		time.Sleep(20 * time.Millisecond)
		t0 := time.Now()
		status, data, err = s.do(base, http.MethodGet, "/operations/"+op.ID, "", nil)
		pollMS = append(pollMS, float64(time.Since(t0))/float64(time.Millisecond))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /operations/%s: status %d", op.ID, status)
		}
		if err == nil {
			err = json.Unmarshal(data, &op)
		}
	}
	if !o.record(err) {
		return 0
	}
	res.values["controlplane.backfill_points_per_s"] = ratio(float64(points), time.Since(start).Seconds())
	res.values["controlplane.op_poll_p50_ms"] = median(pollMS)
	res.samples["controlplane.op_poll_p50_ms"] = len(pollMS)
	return int64(points)
}
