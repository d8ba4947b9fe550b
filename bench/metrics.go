package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"fbdetect/internal/core"
)

// metricDef names one reported number. BENCHMARK.json repeats these lists
// and README.md defines every name in them; tests keep the three from
// drifting apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "points_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ack_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ingest_cpu_us_per_point", unit: "us", better: "lower", bound: 0.25},
	{name: "sweep_s_per_100k_series", unit: "s", better: "lower", bound: 0.25},
	{name: "sweep_cpu_s_per_100k_series", unit: "s", better: "lower", bound: 0.25},
	{name: "verdict_lag_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "bytes_per_point", unit: "B", better: "lower", bound: 0.02},
	{name: "wal_bytes_per_point", unit: "B", better: "lower", bound: 0.005},
	{name: "verdicts_correct_share", unit: "ratio", better: "higher", bound: 0.001},
	{name: "ok_ops_share", unit: "ratio", better: "higher", bound: 0.001},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "distributed.ingest_handler_us_per_req", unit: "us", better: "lower"},
		{name: "distributed.ndjson_decode_ns_per_point", unit: "ns", better: "lower"},
		{name: "distributed.profiles_handler_us_per_req", unit: "us", better: "lower"},
		{name: "pprofparse.parse_us_per_profile", unit: "us", better: "lower"},
		{name: "pprofparse.parse_allocs_per_profile", unit: "count", better: "lower"},
		{name: "pprofparse.sampleset_us_per_profile", unit: "us", better: "lower"},
		{name: "stacktrace.gcpu_all_us_per_profile", unit: "us", better: "lower"},
		{name: "obs.middleware_us_per_req", unit: "us", better: "lower"},
		{name: "wal.append_us_per_batch", unit: "us", better: "lower"},
		{name: "wal.append_always_us_per_batch", unit: "us", better: "lower"},
		{name: "wal.fsyncs_per_kbatch", unit: "count", better: "lower"},
		{name: "wal.group_commit_batches_per_fsync", unit: "count", better: "higher"},
		{name: "wal.bytes_per_point", unit: "B", better: "lower"},
		{name: "wal.recover_ms", unit: "ms", better: "lower"},
		{name: "wal.recover_ns_per_point", unit: "ns", better: "lower"},
		{name: "wal.snapshot_ms", unit: "ms", better: "lower"},
		{name: "tsdb.append_batch_ns_per_point", unit: "ns", better: "lower"},
		{name: "timeseries.encode_chunk_ns_per_point", unit: "ns", better: "lower"},
		{name: "tsdb.sealed_chunks", unit: "count", better: "lower"},
		{name: "tsdb.view_bounds_ns_per_series", unit: "ns", better: "lower"},
		{name: "tsdb.view_decode_ns_per_point", unit: "ns", better: "lower"},
		{name: "timeseries.decode_chunk_ns_per_point", unit: "ns", better: "lower"},
		{name: "tsdb.view_points_per_sweep", unit: "count", better: "lower"},
		{name: "core.shortterm_us_per_series", unit: "us", better: "lower"},
		{name: "core.wentaway_us_per_candidate", unit: "us", better: "lower"},
		{name: "core.seasonality_us_per_candidate", unit: "us", better: "lower"},
		{name: "stl.decompose_us_per_series", unit: "us", better: "lower"},
		{name: "core.som_dedup_us_per_call", unit: "us", better: "lower"},
		{name: "core.longterm_us_per_series", unit: "us", better: "lower"},
	}
	for _, st := range core.PipelineStages {
		defs = append(defs, metricDef{name: "core.stage." + st + "_ms_per_sweep", unit: "ms", better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "core.changepoints_per_sweep", unit: "count", better: "lower"},
		{name: "core.reported_total", unit: "count", better: "higher"},
		{name: "core.checkpoint_hit_share", unit: "ratio", better: "higher"},
		{name: "core.static_checkpoint_hit_share", unit: "ratio", better: "higher"},
		{name: "core.stl_cache_hit_share", unit: "ratio", better: "higher"},
		{name: "core.scan_slide_us_per_series", unit: "us", better: "lower"},
		{name: "core.scan_static_us_per_series", unit: "us", better: "lower"},
		{name: "core.scan_cold_us_per_series", unit: "us", better: "lower"},
		{name: "core.static_sweep_s_per_100k_series", unit: "s", better: "lower"},
		{name: "core.cold_sweep_s_per_100k_series", unit: "s", better: "lower"},
		{name: "distributed.worker_scan_overhead_us", unit: "us", better: "lower"},
		{name: "distributed.coordinator_fanout_us_per_service", unit: "us", better: "lower"},
		{name: "distributed.scan_response_bytes", unit: "B", better: "lower"},
		{name: "controlplane.auth_ratelimit_us_per_req", unit: "us", better: "lower"},
		{name: "controlplane.tenant_append_ns_per_point", unit: "ns", better: "lower"},
		{name: "controlplane.backfill_points_per_s", unit: "1/s", better: "higher"},
		{name: "controlplane.op_poll_p50_ms", unit: "ms", better: "lower"},
		{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},
		{name: "loadgen.rss_mb", unit: "MB", better: "lower"},
		{name: "loadgen.late_p90_ms", unit: "ms", better: "lower"},
		{name: "loadgen.backlog_growth_ms", unit: "ms", better: "lower"},
		{name: "loadgen.ack_p90_ms", unit: "ms", better: "lower"},
		{name: "loadgen.ack_p99_ms", unit: "ms", better: "lower"},
		{name: "loadgen.verdict_lag_p90_ms", unit: "ms", better: "lower"},
		{name: "loadgen.ack_samples", unit: "count", better: "higher"},
		{name: "loadgen.cycle_samples", unit: "count", better: "higher"},
		{name: "host.steal_share", unit: "ratio", better: "lower"},
		{name: "bench.build_s", unit: "s", better: "lower"},
		{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	}...)
}

// Percentile helpers. Inputs are copied, never reordered.

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape is one reading of the SUT's /metrics.json: counters by
// name{labels}, histograms as their sum and count.
type scrape map[string]float64

func scrapeKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := name + "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + labels[k]
	}
	return s + "}"
}

func parseScrape(r io.Reader) (scrape, error) {
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Labels    map[string]string `json:"labels"`
				Value     float64           `json:"value"`
				Histogram *struct {
					Count float64 `json:"count"`
					Sum   float64 `json:"sum"`
				} `json:"histogram"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	out := scrape{}
	for _, m := range doc.Metrics {
		for _, s := range m.Series {
			key := scrapeKey(m.Name, s.Labels)
			if s.Histogram != nil {
				out[key+":sum"] = s.Histogram.Sum
				out[key+":count"] = s.Histogram.Count
				continue
			}
			out[key] = s.Value
		}
	}
	return out, nil
}

func scrapeMetrics(client *http.Client, baseURL string) (scrape, error) {
	resp, err := client.Get(baseURL + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// delta is after-before for one key; a missing reading counts as zero.
func (after scrape) delta(before scrape, key string) float64 { return after[key] - before[key] }
