package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the metric and workload tables in
// this package imply it.
func benchmarkJSON() map[string]any {
	var wl, e2e, layers []map[string]any
	for _, w := range workloads {
		wl = append(wl, map[string]any{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		layers = append(layers, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return map[string]any{
		"command": []string{"bash", "bench/run.sh"}, "paths": []string{"bench"},
		"run_seconds": runSeconds, "workloads": wl, "end_to_end": e2e, "per_layer": layers,
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	wantData, _ := json.Marshal(benchmarkJSON())
	json.Unmarshal(wantData, &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json and the tables in metrics.go / workloads.go disagree\n got: %s\nwant: %s", data, wantData)
	}
}

func TestMetricNamesAreUniqueAndWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	if endToEnd[0].name != "setup_s" {
		t.Fatal("setup_s must lead the end-to-end list")
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v must be positive and no larger than setup_s's", d.name, d.bound)
		}
	}
}

// README.md is where every metric and workload is defined.
func TestReadmeDefinesEveryName(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name := d.name
		if strings.HasPrefix(name, "core.stage.") {
			name = "core.stage.<stage>_ms_per_sweep"
		}
		if !strings.Contains(readme, "`"+name+"`") {
			t.Errorf("README.md does not define metric %s", d.name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}
