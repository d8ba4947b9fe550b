// Package kraken simulates the Kraken live load-testing system (OSDI '16)
// that Capacity Triage relies on (paper §3): it probes a service's
// per-server maximum throughput by ramping load until the latency budget
// is violated, producing the supply-side series CT-supply monitors; the
// demand side tracks total peak requests across all servers.
//
// The server model is an M/M/1-style latency curve: at utilization u the
// latency is base/(1-u), diverging as load approaches capacity. The prober
// does not read the capacity directly — it ramps load against the latency
// model like the real Kraken drives live traffic, so capacity regressions
// surface only through the probe.
package kraken

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fbdetect/internal/tsdb"
)

// ServerModel describes one server's performance at a point in time.
type ServerModel struct {
	// Capacity is the queries/sec at which the server saturates.
	Capacity float64
	// BaseLatency is the unloaded response latency.
	BaseLatency time.Duration
}

// Latency returns the modeled latency at the given load (qps), following
// base/(1-u) with u = load/capacity; at or beyond capacity it returns an
// effectively infinite latency.
func (m ServerModel) Latency(load float64) time.Duration {
	if m.Capacity <= 0 {
		return time.Hour
	}
	u := load / m.Capacity
	if u >= 0.999 {
		return time.Hour
	}
	return time.Duration(float64(m.BaseLatency) / (1 - u))
}

// Prober ramps load against a server model to find the maximum throughput
// that keeps latency within the SLO, like Kraken shifting live traffic.
type Prober struct {
	// LatencySLO is the latency budget; probing stops when modeled
	// latency exceeds it.
	LatencySLO time.Duration
	// Step is the relative ramp increment (default 2%).
	Step float64
	// JitterSigma adds relative measurement noise to each probe result.
	JitterSigma float64
}

// MaxThroughput ramps load from 10% of an initial guess upward until the
// SLO is violated and returns the last sustainable load, with measurement
// jitter applied.
func (p Prober) MaxThroughput(rng *rand.Rand, m ServerModel) float64 {
	step := p.Step
	if step <= 0 {
		step = 0.02
	}
	if p.LatencySLO <= 0 {
		p.LatencySLO = 100 * time.Millisecond
	}
	// Start well below any plausible capacity and ramp geometrically.
	load := m.Capacity * 0.1
	if load <= 0 {
		load = 1
	}
	sustainable := 0.0
	for i := 0; i < 400; i++ {
		if m.Latency(load) > p.LatencySLO {
			break
		}
		sustainable = load
		load *= 1 + step
	}
	if p.JitterSigma > 0 && rng != nil {
		sustainable *= 1 + rng.NormFloat64()*p.JitterSigma
	}
	if sustainable < 0 {
		sustainable = 0
	}
	return sustainable
}

// CapacityEvent scales a service's per-server capacity at a point in time;
// factor < 1 is a supply regression.
type CapacityEvent struct {
	At     time.Time
	Factor float64
}

// DemandEvent scales a service's peak demand at a point in time; factor
// > 1 is a demand regression.
type DemandEvent struct {
	At     time.Time
	Factor float64
}

// Config describes a Capacity Triage target service.
type Config struct {
	Name string
	// Step is the emission interval of the supply/demand series.
	Step time.Duration
	// Server is the baseline per-server model.
	Server ServerModel
	// PeakDemand is the baseline total peak requests/sec across servers.
	PeakDemand float64
	// DemandNoise is the relative noise on demand.
	DemandNoise float64
	// Prober drives the supply-side benchmark.
	Prober Prober
	Seed   int64
}

// Service simulates one CT-monitored service.
type Service struct {
	cfg            Config
	rng            *rand.Rand
	capacityEvents []CapacityEvent
	demandEvents   []DemandEvent
}

// New validates the config and returns a CT service simulator.
func New(cfg Config) (*Service, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("kraken: name required")
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("kraken: step must be positive")
	}
	if cfg.Server.Capacity <= 0 {
		return nil, fmt.Errorf("kraken: capacity must be positive")
	}
	return &Service{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// ScheduleCapacityEvent registers a supply-side change.
func (s *Service) ScheduleCapacityEvent(e CapacityEvent) {
	s.capacityEvents = append(s.capacityEvents, e)
	sort.SliceStable(s.capacityEvents, func(i, j int) bool {
		return s.capacityEvents[i].At.Before(s.capacityEvents[j].At)
	})
}

// ScheduleDemandEvent registers a demand-side change.
func (s *Service) ScheduleDemandEvent(e DemandEvent) {
	s.demandEvents = append(s.demandEvents, e)
	sort.SliceStable(s.demandEvents, func(i, j int) bool {
		return s.demandEvents[i].At.Before(s.demandEvents[j].At)
	})
}

// modelAt returns the server model in effect at t.
func (s *Service) modelAt(t time.Time) ServerModel {
	m := s.cfg.Server
	for _, e := range s.capacityEvents {
		if e.At.After(t) {
			break
		}
		m.Capacity *= e.Factor
	}
	return m
}

// demandAt returns the peak demand in effect at t.
func (s *Service) demandAt(t time.Time) float64 {
	d := s.cfg.PeakDemand
	for _, e := range s.demandEvents {
		if e.At.After(t) {
			break
		}
		d *= e.Factor
	}
	return d
}

// Run emits the CT supply series ("max_throughput", from Kraken probes)
// and demand series ("peak_demand") for [from, to) into db.
func (s *Service) Run(db *tsdb.DB, from, to time.Time) error {
	if db.Step() != s.cfg.Step {
		return fmt.Errorf("kraken: db step %s != service step %s", db.Step(), s.cfg.Step)
	}
	for t := from; t.Before(to); t = t.Add(s.cfg.Step) {
		supply := s.cfg.Prober.MaxThroughput(s.rng, s.modelAt(t))
		if err := db.Append(tsdb.ID(s.cfg.Name, "", "max_throughput"), t, supply); err != nil {
			return err
		}
		demand := s.demandAt(t) * (1 + s.rng.NormFloat64()*s.cfg.DemandNoise)
		if demand < 0 {
			demand = 0
		}
		if err := db.Append(tsdb.ID(s.cfg.Name, "", "peak_demand"), t, demand); err != nil {
			return err
		}
	}
	return nil
}
