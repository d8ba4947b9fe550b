package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"fbdetect/internal/controlplane"
	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/stl"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// The traced run rebuilds the SUT's stack in this process from the layers'
// public constructors and records a span around each call the benchmark
// makes into a layer. It replays one full window of each stream's inputs
// (545 steps, with the injected steps and transients moved to sit around
// step 545) through the HTTP mux, then a fifth of the workload's cycles
// through a serial replica of scanMetric's call sequence. Even steps and
// cycles are spanned and odd ones bare, so both halves see the same store
// and the same minutes of the host; the difference between the halves is
// the tracing overhead. End-to-end numbers never come from here.

// span is one timed call. Parent is an index into the run's span list,
// -1 for a root; spans of one request or one sweep share RequestID.
type span struct {
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
}

// spanLog keeps spans in memory until the run ends. While off, begin and
// end cost one branch: that is the bare half of the replay.
type spanLog struct {
	t0    time.Time
	spans []span
	off   bool
}

func (l *spanLog) begin(name string, parent, request int) int {
	if l.off {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, StartNS: int64(time.Since(l.t0)), Parent: parent, RequestID: request})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if id >= 0 {
		l.spans[id].EndNS = int64(time.Since(l.t0))
	}
}

// selfTimes sums, per span name, duration minus the part children cover.
func (l *spanLog) selfTimes() (self map[string]float64, count map[string]int) {
	self, count = map[string]float64{}, map[string]int{}
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range l.spans {
		self[s.Name] += float64(s.EndNS-s.StartNS-child[i]) / 1e9
		count[s.Name]++
	}
	return self, count
}

// tracedStore is the IngestStore the traced stack writes into: wal.Store's
// two steps, each under its own span.
type tracedStore struct {
	store *wal.Store
	log   *spanLog
	cur   *int // the request span the handler is running under
	req   *int
}

func (t tracedStore) AppendBatch(pts []tsdb.Point) (int, error) {
	id := t.log.begin("wal.append", *t.cur, *t.req)
	err := t.store.Log.Append(pts)
	t.log.end(id)
	if err != nil {
		return 0, err
	}
	id = t.log.begin("tsdb.append_batch", *t.cur, *t.req)
	n, err := t.store.DB.AppendBatch(pts)
	t.log.end(id)
	return n, err
}

type discardStore struct{}

func (discardStore) AppendBatch(pts []tsdb.Point) (int, error) { return len(pts), nil }

// serve runs one request through a handler in-process.
func serve(h http.Handler, r *request, key string) int {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", r.contentType)
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// workerStack assembles what cmd/fbdetect-worker serves in durable mode:
// the instrumented pipeline, worker and ingest routes over db, with sink as
// the store the ingest routes write into.
func workerStack(db *tsdb.DB, sink distributed.IngestStore) (http.Handler, error) {
	reg, tr := obs.NewRegistry(), obs.NewTracer(64)
	pipe, err := core.NewPipeline(sutScanConfig(), db, nil, nil)
	if err != nil {
		return nil, err
	}
	pipe.Instrument(reg, tr)
	worker := distributed.NewWorker("bench", pipe)
	worker.Instrument(reg)
	ing := distributed.NewIngestHandler(sink, distributed.IngestOptions{})
	ing.Instrument(reg)
	prof := distributed.NewProfilesHandler(sink, distributed.ProfilesOptions{})
	prof.Instrument(reg)
	return distributed.NewIngestMux(worker, ing, prof, reg, tr), nil
}

// controlPlaneOptions is how the benchmark starts cmd/fbdetect-server,
// as library options: quotas raised so that they never reject, one job worker.
func controlPlaneOptions(dataDir string, sync wal.SyncPolicy) controlplane.Options {
	return controlplane.Options{
		DataDir: dataDir, AdminKey: adminKey, WAL: wal.Options{Sync: sync},
		DefaultQuotas: controlplane.Quotas{MaxSeries: 1e6, RatePerSec: 1e6, Burst: 1e6},
		JobWorkers:    1,
	}
}

func policyOf(w workload) wal.SyncPolicy {
	p, _ := wal.ParseSyncPolicy(w.walSync)
	return p
}

// replay is what one pass over the traced inputs leaves behind. Walls and
// counts are kept per half: index 0 spanned, 1 bare.
type replay struct {
	requestWall [2]float64 // wall of the request sends
	sweepWall   [2]float64 // wall of the replica sweeps
	points      int        // points of the spanned requests
	sweeps      int
	series      int
	log         *spanLog
	store       *wal.Store
	candidates  []*core.Regression
}

const tracedSteps = historySteps + 5

// runReplay builds the worker stack over a fresh directory and replays
// tracedSteps steps of requests, then cycles steps each followed by a
// serial replica sweep of every series.
func runReplay(w workload, seed int64, dir string) (*replay, error) {
	log := &spanLog{t0: time.Now()}
	rp := &replay{log: log}
	store, err := wal.OpenStore(dir, time.Minute, wal.Options{Sync: policyOf(w)}, tsdb.Options{}, nil)
	if err != nil {
		return nil, err
	}
	rp.store = store
	cur, reqID := -1, 0
	mux, err := workerStack(store.DB, tracedStore{store: store, log: log, cur: &cur, req: &reqID})
	if err != nil {
		return nil, err
	}

	streams := newStreams(w, seed)
	sendStep := func(step int) error {
		for _, s := range streams {
			for _, r := range s.stepRequests(step) {
				reqID++
				cur = log.begin("request", -1, reqID)
				code := serve(mux, r, "")
				log.end(cur)
				if code != http.StatusOK {
					return fmt.Errorf("traced %s: status %d", r.path, code)
				}
				if !log.off {
					rp.points += r.points
				}
				s.recycle(r)
			}
		}
		return nil
	}
	send := func(step int) error {
		log.off = step%2 == 1
		start := time.Now()
		err := sendStep(step)
		rp.requestWall[step%2] += time.Since(start).Seconds()
		return err
	}
	for step := 0; step < tracedSteps; step++ {
		if err := send(step); err != nil {
			return nil, err
		}
	}

	// The replica of scanMetric: the same public calls in the same order,
	// one series at a time, so that each has its own span.
	cfg := sutScanConfig().WithDefaults()
	var metrics []tsdb.MetricID
	for _, s := range streams {
		for _, svc := range s.services() {
			metrics = append(metrics, store.DB.Metrics(svc)...)
		}
	}
	rp.series = len(metrics)
	var sc tsdb.Scratch
	for c := 0; c < w.cycles; c++ {
		step := tracedSteps + c
		if err := send(step); err != nil {
			return nil, err
		}
		log.off = c%2 == 1
		at := scanTimeAfter(step)
		from := at.Add(-cfg.Windows.Total())
		reqID++
		start := time.Now()
		sweep := log.begin("sweep", -1, reqID)
		for _, m := range metrics {
			ser := log.begin("series", sweep, reqID)
			id := log.begin("tsdb.view_bounds", ser, reqID)
			_, _, _, err := store.DB.ViewBounds(m, from, at)
			log.end(id)
			if err != nil {
				return nil, err
			}
			id = log.begin("tsdb.view_decode", ser, reqID)
			series, _, err := store.DB.QueryViewStamped(m, from, at, &sc)
			log.end(id)
			if err != nil {
				return nil, err
			}
			id = log.begin("timeseries.cut", ser, reqID)
			ws, err := cfg.Windows.Cut(series, at)
			log.end(id)
			if err != nil {
				return nil, err
			}
			id = log.begin("core.shortterm", ser, reqID)
			r := core.DetectShortTerm(cfg, m, ws, at)
			log.end(id)
			if r != nil {
				id = log.begin("core.wentaway", ser, reqID)
				keep := core.CheckWentAway(cfg.WentAway, r).Keep
				log.end(id)
				if keep {
					id = log.begin("core.seasonality", ser, reqID)
					keep = core.CheckSeasonality(cfg.Seasonality, r).Keep
					log.end(id)
					if keep && c >= w.cycles-2 {
						r.Windows = r.Windows.Clone() // outlive the scratch buffer
						rp.candidates = append(rp.candidates, r)
					}
				}
			}
			log.end(ser)
		}
		log.end(sweep)
		rp.sweepWall[c%2] += time.Since(start).Seconds()
		rp.sweeps++
	}
	return rp, nil
}

// rotate returns a func whose k-th call is f(k mod n).
func rotate(n int, f func(i int)) func() {
	k := 0
	return func() { f(k % n); k++ }
}

// timeN returns the seconds one call of f takes, as the median of reps
// timings of n calls each.
func timeN(reps, n int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		for j := 0; j < n; j++ {
			f()
		}
		ts[i] = time.Since(start).Seconds() / float64(n)
	}
	return median(ts)
}

// tracedRun fills res with the T metrics and writes the span file.
func tracedRun(w workload, seed int64, res *runResult, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "trace-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The traced variant of the workload: history of exactly one window,
	// so that what was injected around the first live step is in view.
	w.cycles = max(4, w.cycles/5) &^ 1
	w.phaseASteps = tracedSteps
	rp, err := runReplay(w, seed, filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer rp.store.Close()
	log, v := rp.log, res.values
	spanned, bare := rp.requestWall[0]+rp.sweepWall[0], rp.requestWall[1]+rp.sweepWall[1]
	v["bench.trace_overhead_share"] = ratio(spanned-bare, bare)

	// The rows of each table are self times; they have to account for the
	// wall time of the loop they were recorded in.
	self, count := log.selfTimes()
	reqRows := []string{"request", "wal.append", "tsdb.append_batch"}
	sweepRows := []string{"sweep", "series", "tsdb.view_bounds", "tsdb.view_decode", "timeseries.cut",
		"core.shortterm", "core.wentaway", "core.seasonality"}
	table := func(title string, rows []string, wall float64) error {
		var sum float64
		fmt.Printf("\ntrace %s: %s\n", w.name, title)
		for _, name := range rows {
			sum += self[name]
			fmt.Printf("  %-20s %10.3f ms self  %8d spans  %6.1f%%\n", name, self[name]*1e3, count[name], 100*ratio(self[name], wall))
		}
		fmt.Printf("  %-20s %10.3f ms of %.3f ms wall (%.1f%%)\n", "sum", sum*1e3, wall*1e3, 100*ratio(sum, wall))
		if sum < 0.95*wall || sum > 1.05*wall {
			return fmt.Errorf("%s spans sum to %.1f%% of the loop's wall time; want within 5%%", title, 100*ratio(sum, wall))
		}
		return nil
	}
	if err := table("requests", reqRows, rp.requestWall[0]); err != nil {
		return err
	}
	if err := table("sweeps", sweepRows, rp.sweepWall[0]); err != nil {
		return err
	}
	per := func(name string, unit float64, den int) float64 { return ratio(self[name]*unit, float64(den)) }
	v["wal.append_us_per_batch"] = per("wal.append", 1e6, count["wal.append"])
	v["tsdb.append_batch_ns_per_point"] = per("tsdb.append_batch", 1e9, rp.points)
	v["tsdb.view_bounds_ns_per_series"] = per("tsdb.view_bounds", 1e9, count["tsdb.view_bounds"])
	v["tsdb.view_decode_ns_per_point"] = per("tsdb.view_decode", 1e9, count["tsdb.view_decode"]*historySteps)
	v["core.shortterm_us_per_series"] = per("core.shortterm", 1e6, count["core.shortterm"])
	v["core.wentaway_us_per_candidate"] = per("core.wentaway", 1e6, count["core.wentaway"])
	v["core.seasonality_us_per_candidate"] = per("core.seasonality", 1e6, count["core.seasonality"])

	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, seed, log.spans); err != nil {
		return err
	}
	if err := microLayers(w, seed, rp, v, dir); err != nil {
		return err
	}
	if w.binary == binServer {
		return controlPlaneLayers(w, seed, v, dir)
	}
	return nil
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// microLayers times single layers directly on the workload's own inputs:
// calls the replay cannot put a span around because they happen inside a
// handler, and variants the workload's SUT does not run.
func microLayers(w workload, seed int64, rp *replay, v map[string]float64, dir string) error {
	streams := newStreams(w, seed)
	var nd, pp []*request // up to 200 bodies of each kind, from the first steps
	for step := 0; step < 200 && (len(nd) < 200 || len(pp) < 200); step++ {
		for _, s := range streams {
			for _, r := range s.stepRequests(step) {
				switch {
				case s.nd != nil && len(nd) < 200:
					r.body = append([]byte(nil), r.body...)
					nd = append(nd, r)
				case s.nd == nil && len(pp) < 200:
					pp = append(pp, r)
				}
			}
		}
	}
	each := func(reqs []*request, f func(r *request)) func() {
		return rotate(len(reqs), func(i int) { f(reqs[i]) })
	}
	reg := obs.NewRegistry()

	if len(nd) > 0 {
		h := distributed.NewIngestHandler(discardStore{}, distributed.IngestOptions{})
		h.Instrument(reg)
		bareT := timeN(5, len(nd), each(nd, func(r *request) { serve(h, r, "") }))
		v["distributed.ingest_handler_us_per_req"] = bareT * 1e6
		v["distributed.ndjson_decode_ns_per_point"] = ratio(bareT*1e9, float64(nd[0].points))
		mw := obs.Middleware(reg, "/ingest", h)
		v["obs.middleware_us_per_req"] = (timeN(5, len(nd), each(nd, func(r *request) { serve(mw, r, "") })) - bareT) * 1e6
	}
	if len(pp) > 0 {
		h := distributed.NewProfilesHandler(discardStore{}, distributed.ProfilesOptions{})
		h.Instrument(reg)
		v["distributed.profiles_handler_us_per_req"] = timeN(3, len(pp), each(pp, func(r *request) { serve(h, r, "") })) * 1e6
		if _, ok := v["obs.middleware_us_per_req"]; !ok {
			mw := obs.Middleware(reg, "/profiles", h)
			with := timeN(3, len(pp), each(pp, func(r *request) { serve(mw, r, "") }))
			v["obs.middleware_us_per_req"] = with*1e6 - v["distributed.profiles_handler_us_per_req"]
		}
		var prof *pprofparse.Profile
		var perr error
		v["pprofparse.parse_us_per_profile"] = timeN(3, len(pp), each(pp, func(r *request) { prof, perr = pprofparse.Parse(r.body) })) * 1e6
		if perr != nil {
			return perr
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, r := range pp {
			prof, _ = pprofparse.Parse(r.body)
		}
		runtime.ReadMemStats(&ms1)
		v["pprofparse.parse_allocs_per_profile"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(pp)))
		ss, err := prof.SampleSet(pprofparse.ConvertOptions{})
		if err != nil {
			return err
		}
		v["pprofparse.sampleset_us_per_profile"] = timeN(3, 50, func() { ss, _ = prof.SampleSet(pprofparse.ConvertOptions{}) }) * 1e6
		v["stacktrace.gcpu_all_us_per_profile"] = timeN(3, 50, func() { ss.GCPUAll() }) * 1e6
	}

	// WAL appends of the workload's own batches under the always policy,
	// which no workload's SUT runs.
	var batches [][]tsdb.Point
	capture := captureStore{into: &batches}
	ch := distributed.NewIngestHandler(capture, distributed.IngestOptions{})
	ph := distributed.NewProfilesHandler(capture, distributed.ProfilesOptions{})
	for i := 0; i < 100; i++ {
		if i < len(nd) {
			serve(ch, nd[i], "")
		}
		if i < len(pp) {
			serve(ph, pp[i], "")
		}
	}
	always, err := wal.Open(filepath.Join(dir, "always"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var aerr error
	v["wal.append_always_us_per_batch"] = timeN(1, len(batches), rotate(len(batches), func(i int) {
		if err := always.Append(batches[i]); err != nil {
			aerr = err
		}
	})) * 1e6
	always.Close()
	if aerr != nil {
		return aerr
	}
	start := time.Now()
	if err := rp.store.Snapshot(); err != nil {
		return err
	}
	v["wal.snapshot_ms"] = float64(time.Since(start)) / float64(time.Millisecond)

	// Chunk codec and decomposition, on windows of the replayed store.
	db := rp.store.DB
	var windows [][]float64
	var ids []tsdb.MetricID
	for _, s := range streams {
		for _, svc := range s.services() {
			for _, m := range db.Metrics(svc) {
				if len(windows) == 64 {
					break
				}
				full, err := db.Full(m)
				if err != nil || full.Len() < historySteps {
					continue
				}
				windows = append(windows, append([]float64(nil), full.Values[full.Len()-historySteps:]...))
				ids = append(ids, m)
			}
		}
	}
	if len(windows) == 0 {
		return fmt.Errorf("traced store holds no full window")
	}
	const chunk = tsdb.DefaultChunkSize
	var encoded [][]byte
	encT := timeN(3, len(windows), rotate(len(windows), func(i int) {
		for off := 0; off+chunk <= historySteps; off += chunk {
			b, _ := timeseries.EncodeChunk(epoch, time.Minute, windows[i][off:off+chunk])
			if len(encoded) < 4*len(windows) {
				encoded = append(encoded, b)
			}
		}
	}))
	perWindow := historySteps / chunk * chunk
	v["timeseries.encode_chunk_ns_per_point"] = ratio(encT*1e9, float64(perWindow))
	var buf []float64
	decT := timeN(3, len(encoded), rotate(len(encoded), func(i int) {
		_, _, buf, _ = timeseries.DecodeChunk(encoded[i], buf[:0])
	}))
	v["timeseries.decode_chunk_ns_per_point"] = ratio(decT*1e9, chunk)
	v["stl.decompose_us_per_series"] = timeN(1, len(windows), rotate(len(windows), func(i int) {
		stl.Decompose(windows[i], seasonPeriod, stl.Options{})
	})) * 1e6

	// Long-term detection, which the binaries leave off, on the same series.
	cfg := sutScanConfig().WithDefaults()
	cfg.LongTerm = true
	at := scanTimeAfter(tracedSteps + rp.sweeps - 1)
	var sc tsdb.Scratch
	var longTerm time.Duration
	for _, id := range ids {
		series, _, err := db.QueryViewStamped(id, at.Add(-cfg.Windows.Total()), at, &sc)
		if err != nil {
			return err
		}
		ws, err := cfg.Windows.Cut(series, at)
		if err != nil {
			return err
		}
		start := time.Now()
		core.DetectLongTerm(cfg, id, ws, at)
		longTerm += time.Since(start)
	}
	v["core.longterm_us_per_series"] = ratio(float64(longTerm)/1e3, float64(len(ids)))
	if len(rp.candidates) >= 2 {
		v["core.som_dedup_us_per_call"] = timeN(3, 5, func() { core.SOMDedup(cfg.Dedup, rp.candidates, nil) }) * 1e6
	}

	return scanLayers(streams, rp, v, at)
}

// captureStore keeps the point batches a handler decodes.
type captureStore struct{ into *[][]tsdb.Point }

func (c captureStore) AppendBatch(pts []tsdb.Point) (int, error) {
	*c.into = append(*c.into, append([]tsdb.Point(nil), pts...))
	return len(pts), nil
}

// scanLayers times whole-pipeline scans in their three states and the HTTP
// layers around them, on the replayed store.
func scanLayers(streams []*stream, rp *replay, v map[string]float64, at time.Time) error {
	db := rp.store.DB
	var services []string
	for _, s := range streams {
		services = append(services, s.services()...)
	}
	newPipe := func() *core.Pipeline {
		p, _ := core.NewPipeline(sutScanConfig(), db, nil, nil)
		return p
	}
	scanAll := func(p *core.Pipeline) error {
		for _, svc := range services {
			if _, err := p.ScanContext(context.Background(), svc, at); err != nil {
				return err
			}
		}
		return nil
	}
	series := float64(rp.series)
	var serr error
	run := func(p *core.Pipeline) float64 {
		start := time.Now()
		if err := scanAll(p); err != nil {
			serr = err
		}
		return time.Since(start).Seconds() / series * 1e6
	}
	pipe := newPipe()
	v["core.scan_cold_us_per_series"] = run(pipe)
	static := make([]float64, 10)
	for i := range static {
		static[i] = run(pipe)
	}
	v["core.scan_static_us_per_series"] = median(static)
	// A slide: one more step lands, every window moves.
	var slide []float64
	for k := 0; k < 3; k++ {
		step := tracedSteps + rp.sweeps + k
		for _, svc := range services {
			for _, m := range db.Metrics(svc) {
				full, err := db.Full(m)
				if err != nil {
					return err
				}
				// The value is beside the point: the window has to move.
				if err := db.Append(m, stepTime(step), full.Values[full.Len()-1]); err != nil {
					return err
				}
			}
		}
		at = scanTimeAfter(step)
		slide = append(slide, run(pipe))
	}
	v["core.scan_slide_us_per_series"] = median(slide)
	if serr != nil {
		return serr
	}

	// Worker.ServeHTTP against the bare pipeline call, both on static scans.
	worker := distributed.NewWorker("overhead", pipe)
	scanReq := func(svc string) *request {
		return &request{path: "/scan", contentType: "application/json", body: scanBody(svc, at)}
	}
	scanAll(pipe)
	viaHTTP := timeN(5, 4*len(services), rotate(len(services), func(i int) { serve(worker, scanReq(services[i]), "") }))
	direct := timeN(5, 4*len(services), rotate(len(services), func(i int) { pipe.ScanContext(context.Background(), services[i], at) }))
	v["distributed.worker_scan_overhead_us"] = (viaHTTP - direct) * 1e6

	// Coordinator fan-out over two real HTTP workers: what ScanAll adds on
	// top of the busier worker's own time.
	var busy [2]atomic.Int64
	var urls []string
	for k := 0; k < 2; k++ {
		wk := distributed.NewWorker(fmt.Sprintf("w%d", k), newPipe())
		k := k
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/scan" {
				io.WriteString(rw, "ok\n")
				return
			}
			start := time.Now()
			wk.ServeHTTP(rw, r)
			busy[k].Add(int64(time.Since(start)))
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	coord, err := distributed.NewCoordinator(urls, nil)
	if err != nil {
		return err
	}
	if _, err := coord.ScanAllContext(context.Background(), services, at); err != nil {
		return err
	}
	fan := make([]float64, 20)
	for i := range fan {
		busy[0].Store(0)
		busy[1].Store(0)
		start := time.Now()
		if _, err := coord.ScanAllContext(context.Background(), services, at); err != nil {
			return err
		}
		wall := time.Since(start)
		fan[i] = float64(wall-time.Duration(max(busy[0].Load(), busy[1].Load()))) / 1e3 / float64(len(services))
	}
	v["distributed.coordinator_fanout_us_per_service"] = median(fan)
	return nil
}

// controlPlaneLayers compares the tenant path with the bare worker path on
// the same NDJSON bodies, both over a batch-policy WAL so that fsync noise
// does not drown the difference.
func controlPlaneLayers(w workload, seed int64, v map[string]float64, dir string) error {
	srv, err := controlplane.NewServer(controlPlaneOptions(filepath.Join(dir, "cp"), wal.SyncBatch))
	if err != nil {
		return err
	}
	defer srv.Close()
	cp := srv.Handler()
	body, _ := json.Marshal(map[string]string{"name": "alpha"})
	reg := httptest.NewRequest(http.MethodPost, "/admin/tenants", bytes.NewReader(body))
	reg.Header.Set("Authorization", "Bearer "+adminKey)
	rec := httptest.NewRecorder()
	cp.ServeHTTP(rec, reg)
	var tenant struct{ Key string }
	if err := json.Unmarshal(rec.Body.Bytes(), &tenant); err != nil || tenant.Key == "" {
		return fmt.Errorf("traced tenant registration: status %d", rec.Code)
	}

	store, err := wal.OpenStore(filepath.Join(dir, "bare-worker"), time.Minute, wal.Options{}, tsdb.Options{}, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	bare, err := workerStack(store.DB, store)
	if err != nil {
		return err
	}

	// Alternate the two paths step by step, so that both see the same
	// store sizes and the same moments of the host's noise.
	var tenantS, bareS float64
	points := 0
	for _, s := range newStreams(w, seed) {
		if s.nd == nil {
			continue
		}
		for step := 0; step < 200; step++ {
			for _, r := range s.stepRequests(step) {
				t0 := time.Now()
				c1 := serve(cp, r, tenant.Key)
				t1 := time.Now()
				c2 := serve(bare, r, "")
				t2 := time.Now()
				if c1 != http.StatusOK || c2 != http.StatusOK {
					return fmt.Errorf("traced tenant ingest: status %d / %d", c1, c2)
				}
				tenantS += t1.Sub(t0).Seconds()
				bareS += t2.Sub(t1).Seconds()
				points += r.points
			}
		}
	}
	v["controlplane.tenant_append_ns_per_point"] = ratio((tenantS-bareS)*1e9, float64(points))
	probe := &request{path: "/scan", contentType: "application/json", body: scanBody("no-such-service", epoch)}
	viaCP := timeN(5, 500, func() { serve(cp, probe, tenant.Key) })
	viaBare := timeN(5, 500, func() { serve(bare, probe, "") })
	v["controlplane.auth_ratelimit_us_per_req"] = (viaCP - viaBare) * 1e6
	return nil
}
