package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"fbdetect/internal/controlplane"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// inprocSUT is the sut the tests run against: the same stack the binaries
// assemble, served by httptest in this process, so no test needs `go
// build`. wrap, when set, stands between the client and the stack.
type inprocSUT struct {
	w       workload
	dataDir string
	wrap    func(http.Handler) http.Handler

	srv   *httptest.Server
	close func() error
}

func (s *inprocSUT) start(context.Context) error {
	var h http.Handler
	switch s.w.binary {
	case binServer:
		cp, err := controlplane.NewServer(controlPlaneOptions(s.dataDir, policyOf(s.w)))
		if err != nil {
			return err
		}
		h, s.close = cp.Handler(), cp.Close
	default:
		store, err := wal.OpenStore(s.dataDir, time.Minute, wal.Options{Sync: policyOf(s.w)}, tsdb.Options{}, nil)
		if err != nil {
			return err
		}
		if h, err = workerStack(store.DB, store); err != nil {
			return err
		}
		s.close = func() error {
			if err := store.Snapshot(); err != nil {
				return err
			}
			return store.Close()
		}
	}
	if s.wrap != nil {
		h = s.wrap(h)
	}
	s.srv = httptest.NewServer(h)
	return nil
}

func (s *inprocSUT) baseURL() string { return s.srv.URL }
func (s *inprocSUT) pid() int        { return os.Getpid() }
func (s *inprocSUT) kill()           { s.stop() }

func (s *inprocSUT) stop() error {
	if s.srv == nil {
		return nil
	}
	s.srv.Close()
	s.srv = nil
	return s.close()
}

func (s *inprocSUT) storeDir() string {
	if s.w.binary == binServer {
		return filepath.Join(s.dataDir, "tsdb")
	}
	return s.dataDir
}

// shortRun runs one workload at a fraction of its committed size.
func shortRun(t *testing.T, name string, scale float64, seed int64, wrap func(http.Handler) http.Handler) (*runResult, workload) {
	t.Helper()
	w := findWorkload(name).scaled(scale)
	// The committed periods assume 400-700 series per sweep.
	w.cyclePeriod = 15 * time.Millisecond
	w.setups = 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return runWorkload(ctx, runConfig{
		w: w, seed: seed, benchDir: ".", outDir: t.TempDir(),
		newSUT: func(w workload, dataDir, _ string) sut {
			return &inprocSUT{w: w, dataDir: dataDir, wrap: wrap}
		},
	}), w
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

// Every name in BENCHMARK.json is printed by a run, and a run measures
// nothing the tables do not name. tenant_mix is the one workload every
// layer applies to.
func TestShortenedRunReportsEveryMetric(t *testing.T) {
	res, w := shortRun(t, "tenant_mix", 0.1, 1, nil)
	if !res.correct() {
		t.Fatalf("shortened tenant_mix: failed=%d errs=%v verdicts=%v", res.failed, res.errs, res.values["verdicts_correct_share"])
	}
	if err := tracedRun(w, 1, res, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	res.values["bench.build_s"] = 0 // the tests build nothing
	defined := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		defined[d.name] = true
		if _, ok := res.values[d.name]; !ok {
			t.Errorf("metric %s is in BENCHMARK.json and was not measured", d.name)
		}
	}
	for name := range res.values {
		if !defined[name] {
			t.Errorf("metric %s was measured and is not in BENCHMARK.json", name)
		}
	}
	for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		var line struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(contractLine(res, trace), &line); err != nil {
			t.Fatal(err)
		}
		var got []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if want := metricNames(defs); !equalStrings(got, want) {
			t.Errorf("trace=%v prints %v, want %v", trace, got, want)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
	}
	for _, d := range endToEnd {
		if res.values[d.name] == 0 {
			t.Errorf("end-to-end metric %s read 0", d.name)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A shortened live_slide through the HTTP surface reports exactly what the
// in-process reference does, which is the pinned list.
func TestShortenedLiveSlideMatchesReference(t *testing.T) {
	res, w := shortRun(t, "live_slide", 0.25, 1, nil)
	if !res.correct() {
		t.Fatalf("failed=%d errs=%v verdicts_correct_share=%v", res.failed, res.errs, res.values["verdicts_correct_share"])
	}
	want, err := referenceVerdicts(w, newStreams(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	pinned := []string{
		"cold svc0/fn0021/gcpu 2024-01-01T08:21:00Z",
		"cold svc2/fn0034/gcpu 2024-01-01T08:42:00Z",
		"live svc0/fn0021/gcpu 2024-01-01T08:21:00Z",
		"live svc2/fn0034/gcpu 2024-01-01T08:42:00Z",
	}
	if !equalStrings(want.sorted(), pinned) {
		t.Errorf("reference reports %v at scale 0.25, pinned %v", want.sorted(), pinned)
	}
	if res.values["core.checkpoint_hit_share"] != 0 || res.values["core.static_checkpoint_hit_share"] < 0.95 {
		t.Errorf("checkpoint hit share: live %v, static %v; want 0 and about 1",
			res.values["core.checkpoint_hit_share"], res.values["core.static_checkpoint_hit_share"])
	}
}

// Every committed golden file is what the reference computes today.
func TestGoldenFilesLoad(t *testing.T) {
	for _, w := range workloads {
		set, ok := loadGolden(".", w, 1)
		if ok != hasGolden(w) {
			t.Errorf("%s: golden file present=%v, want %v", w.name, ok, hasGolden(w))
		}
		if ok && len(set) == 0 {
			t.Errorf("%s: golden file is empty", w.name)
		}
	}
}

// Failed requests stay in every denominator: a stub in front of the stack
// answers some ingests with 500 or 429, and the run reports them as failed
// operations and as slow acks instead of dropping them.
func TestFailedRequestsStayInDenominators(t *testing.T) {
	var ingests, injected atomic.Int64
	stub := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/ingest" {
				switch n := ingests.Add(1); {
				case n > 40 && n%10 == 0:
					injected.Add(1)
					http.Error(rw, "injected", http.StatusInternalServerError)
					return
				case n > 40 && n%10 == 5:
					injected.Add(1)
					rw.Header().Set("Retry-After", "1")
					http.Error(rw, "injected", http.StatusTooManyRequests)
					return
				}
			}
			next.ServeHTTP(rw, r)
		})
	}
	res, w := shortRun(t, "ingest_ndjson", 0.05, 1, stub)
	if res.correct() {
		t.Fatal("a run with injected failures called itself correct")
	}
	// A refused batch leaves a hole, so the recovered point count is off
	// too: that is one more failed operation on top of the injected ones.
	if res.failed != injected.Load()+1 {
		t.Errorf("failed = %d, want the %d injected plus the point-count check; errs %v", res.failed, injected.Load(), res.errs)
	}
	if res.attempted <= res.failed || res.values["ok_ops_share"] >= 1 ||
		res.values["ok_ops_share"] != float64(res.attempted-res.failed)/float64(res.attempted) {
		t.Errorf("attempted=%d failed=%d ok_ops_share=%v", res.attempted, res.failed, res.values["ok_ops_share"])
	}
	phaseA := float64(w.phaseASteps - warmupRequests) // wide batches: one request per step
	if res.values["loadgen.ack_samples"] != phaseA {
		t.Errorf("ack samples = %v, want every phase-A request (%v), failed ones included", res.values["loadgen.ack_samples"], phaseA)
	}
	if res.values["loadgen.ack_p99_ms"] != failedLatencyMS {
		t.Errorf("ack p99 = %v ms; failed requests should read as the %v ms timeout", res.values["loadgen.ack_p99_ms"], failedLatencyMS)
	}
}

// An SUT that dies mid-run produces a failed result, not a panic or a hang.
func TestEarlySUTExitIsCounted(t *testing.T) {
	var ingests atomic.Int64
	var victim *inprocSUT
	w := findWorkload("live_slide").scaled(0.05)
	w.setups = 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res := runWorkload(ctx, runConfig{
		w: w, seed: 1, benchDir: ".", outDir: t.TempDir(),
		newSUT: func(w workload, dataDir, _ string) sut {
			victim = &inprocSUT{w: w, dataDir: dataDir, wrap: func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/ingest" && ingests.Add(1) == 200 {
						go victim.srv.CloseClientConnections()
						go victim.srv.Listener.Close()
					}
					next.ServeHTTP(rw, r)
				})
			}}
			return victim
		},
	})
	if res.correct() || res.failed == 0 || res.values["ok_ops_share"] >= 1 {
		t.Fatalf("dead SUT: correct=%v failed=%d ok_ops_share=%v", res.correct(), res.failed, res.values["ok_ops_share"])
	}
}

// Seed 1's first NDJSON batch and first profile are pinned; seed 2 differs.
func TestInputsFollowFromSeed(t *testing.T) {
	first := func(workload string, seed int64) string {
		s := newStreams(*findWorkload(workload), seed)[0]
		sum := sha256.Sum256(s.stepRequests(0)[0].body)
		return hex.EncodeToString(sum[:])
	}
	pins := map[string]string{
		"ingest_ndjson": "c9e3e8abad9f2a8fd0a8dce460fb937592148d40eb4f2baf6e3565cf1477b3c5",
		"ingest_pprof":  "21c614df34b65d908523e867503a3328ad6d62fdc0bd07ee02584f406cb6e9fe",
	}
	for workload, want := range pins {
		seed1, again, seed2 := first(workload, 1), first(workload, 1), first(workload, 2)
		if seed1 != want {
			t.Errorf("%s seed 1: first body hashes to %s, pinned %s", workload, seed1, want)
		}
		if again != seed1 {
			t.Errorf("%s: the same seed gave different inputs", workload)
		}
		if seed2 == seed1 {
			t.Errorf("%s: seeds 1 and 2 gave the same first body", workload)
		}
	}
}

func TestAppendMicroMatchesTheDecoder(t *testing.T) {
	for _, micro := range []int64{0, 1, 43210, 999999, 1000000, 20000001} {
		var f float64
		if err := json.Unmarshal(appendMicro(nil, micro), &f); err != nil {
			t.Fatal(err)
		}
		if f != microToFloat(micro) {
			t.Errorf("micro %d: decoder reads %v, reference uses %v", micro, f, microToFloat(micro))
		}
	}
}
