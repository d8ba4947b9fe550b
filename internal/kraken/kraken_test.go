package kraken

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/stats"
	"fbdetect/internal/tsdb"
)

var t0 = time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC)

func TestServerModelLatencyCurve(t *testing.T) {
	m := ServerModel{Capacity: 1000, BaseLatency: 10 * time.Millisecond}
	if got := m.Latency(0); got != 10*time.Millisecond {
		t.Errorf("unloaded latency = %v", got)
	}
	if got := m.Latency(500); got != 20*time.Millisecond {
		t.Errorf("half-load latency = %v, want 20ms", got)
	}
	if got := m.Latency(1000); got < time.Minute {
		t.Errorf("saturated latency = %v, want huge", got)
	}
	if got := m.Latency(999.99); got < 100*time.Millisecond {
		t.Errorf("near-saturation latency = %v", got)
	}
	bad := ServerModel{Capacity: 0}
	if bad.Latency(1) < time.Minute {
		t.Error("zero capacity should saturate")
	}
}

func TestProberFindsCapacityKnee(t *testing.T) {
	m := ServerModel{Capacity: 1000, BaseLatency: 10 * time.Millisecond}
	p := Prober{LatencySLO: 100 * time.Millisecond}
	got := p.MaxThroughput(nil, m)
	// SLO 100ms with base 10ms means latency budget allows u = 0.9.
	if got < 850 || got > 910 {
		t.Errorf("max throughput = %v, want ~900", got)
	}
}

func TestProberTracksCapacityChanges(t *testing.T) {
	p := Prober{LatencySLO: 100 * time.Millisecond}
	m1 := ServerModel{Capacity: 1000, BaseLatency: 10 * time.Millisecond}
	m2 := ServerModel{Capacity: 800, BaseLatency: 10 * time.Millisecond}
	t1 := p.MaxThroughput(nil, m1)
	t2 := p.MaxThroughput(nil, m2)
	ratio := t2 / t1
	if math.Abs(ratio-0.8) > 0.05 {
		t.Errorf("throughput ratio = %v, want ~0.8", ratio)
	}
}

func TestProberJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := ServerModel{Capacity: 1000, BaseLatency: 10 * time.Millisecond}
	p := Prober{LatencySLO: 100 * time.Millisecond, JitterSigma: 0.02}
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = p.MaxThroughput(rng, m)
	}
	if stats.StdDev(vals) == 0 {
		t.Error("jitter produced identical results")
	}
	if m := stats.Mean(vals); m < 800 || m > 1000 {
		t.Errorf("mean probed throughput = %v", m)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{Name: "x", Step: 0, Server: ServerModel{Capacity: 1}},
		{Name: "x", Step: time.Hour, Server: ServerModel{Capacity: 0}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRunEmitsSupplyAndDemand(t *testing.T) {
	svc, err := New(Config{
		Name: "ct-svc", Step: time.Hour,
		Server:     ServerModel{Capacity: 1000, BaseLatency: 10 * time.Millisecond},
		PeakDemand: 50000, DemandNoise: 0.01,
		Prober: Prober{LatencySLO: 100 * time.Millisecond, JitterSigma: 0.01},
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Supply regression at day 3, demand regression at day 5.
	svc.ScheduleCapacityEvent(CapacityEvent{At: t0.Add(72 * time.Hour), Factor: 0.9})
	svc.ScheduleDemandEvent(DemandEvent{At: t0.Add(120 * time.Hour), Factor: 1.15})

	db := tsdb.New(time.Hour)
	if err := svc.Run(db, t0, t0.Add(7*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	supply, err := db.Full(tsdb.ID("ct-svc", "", "max_throughput"))
	if err != nil {
		t.Fatal(err)
	}
	if supply.Len() != 7*24 {
		t.Fatalf("supply points = %d", supply.Len())
	}
	before := stats.Mean(supply.Values[:72])
	after := stats.Mean(supply.Values[72:])
	if ratio := after / before; math.Abs(ratio-0.9) > 0.03 {
		t.Errorf("supply drop ratio = %v, want ~0.9", ratio)
	}
	demand, err := db.Full(tsdb.ID("ct-svc", "", "peak_demand"))
	if err != nil {
		t.Fatal(err)
	}
	dBefore := stats.Mean(demand.Values[:120])
	dAfter := stats.Mean(demand.Values[120:])
	if ratio := dAfter / dBefore; math.Abs(ratio-1.15) > 0.03 {
		t.Errorf("demand rise ratio = %v, want ~1.15", ratio)
	}
}
