package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Monitor runs a pipeline continuously, scanning each registered service
// at the configuration's re-run interval — how FBDetect operates in
// production ("periodically, at every re-run interval, FBDetect analyzes
// data within the most recent ... windows", Table 1).
//
// Time is injected so simulations can drive the monitor with virtual
// clocks; production use passes time.Now and a ticker-backed wait.
type Monitor struct {
	pipeline *Pipeline
	interval time.Duration

	mu        sync.Mutex
	services  []string
	reports   []*Regression
	popShifts []*PopulationShift
	funnel    Funnel
	scans     int
	onReport  func(*Regression)
	obs       *monitorObs // nil until Instrument; nil-safe hooks
}

// NewMonitor wraps a pipeline with periodic scanning at the given
// interval (falling back to the config's RerunInterval, then 1h).
func NewMonitor(p *Pipeline, interval time.Duration) (*Monitor, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil pipeline")
	}
	if interval <= 0 {
		interval = p.cfg.RerunInterval
	}
	if interval <= 0 {
		interval = time.Hour
	}
	return &Monitor{pipeline: p, interval: interval}, nil
}

// Watch registers a service for scanning.
func (m *Monitor) Watch(service string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.services {
		if s == service {
			return
		}
	}
	m.services = append(m.services, service)
	if m.obs != nil {
		m.obs.watched.Set(float64(len(m.services)))
	}
}

// OnReport registers a callback invoked for every newly reported
// regression (alerting hook).
func (m *Monitor) OnReport(fn func(*Regression)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onReport = fn
}

// ScanOnce scans every watched service at scanTime, in registration
// order, accumulating reports. It stops at the first service whose scan
// fails.
func (m *Monitor) ScanOnce(scanTime time.Time) error {
	m.mu.Lock()
	services := append([]string{}, m.services...)
	cb := m.onReport
	mo := m.obs
	m.mu.Unlock()
	cycleStart := time.Now()
	for _, svc := range services {
		res, err := m.pipeline.ScanContext(context.Background(), svc, scanTime)
		if err != nil {
			if mo != nil {
				mo.errors.Inc()
			}
			return fmt.Errorf("core: scanning %s: %w", svc, err)
		}
		m.mu.Lock()
		m.scans++
		m.funnel.Add(res.Funnel)
		m.reports = append(m.reports, res.Reported...)
		m.popShifts = append(m.popShifts, res.PopulationShifts...)
		m.mu.Unlock()
		if mo != nil {
			mo.reports.Add(float64(len(res.Reported)))
		}
		if cb != nil {
			for _, r := range res.Reported {
				cb(r)
			}
		}
	}
	if mo != nil {
		mo.cycleDur.Observe(time.Since(cycleStart).Seconds())
		mo.cycles.Inc()
		mo.lastScan.Set(float64(scanTime.Unix()))
	}
	return nil
}

// RunVirtual drives scans over simulated time [from, to] at the re-run
// interval — the way the evaluation harness replays history.
func (m *Monitor) RunVirtual(from, to time.Time) error {
	for t := from; !t.After(to); t = t.Add(m.interval) {
		if err := m.ScanOnce(t); err != nil {
			return err
		}
	}
	return nil
}

// Run scans in real time until the context is cancelled, using the wall
// clock. It scans immediately, then on every interval tick.
func (m *Monitor) Run(ctx context.Context) error {
	if err := m.ScanOnce(time.Now()); err != nil {
		return err
	}
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case now := <-ticker.C:
			if err := m.ScanOnce(now); err != nil {
				return err
			}
		}
	}
}

// Reports returns all regressions reported so far.
func (m *Monitor) Reports() []*Regression {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Regression, len(m.reports))
	copy(out, m.reports)
	return out
}

// PopulationShifts returns every population-shift verdict emitted so
// far (candidates the pop-shift stage suppressed instead of reporting).
func (m *Monitor) PopulationShifts() []*PopulationShift {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*PopulationShift, len(m.popShifts))
	copy(out, m.popShifts)
	return out
}

// Stats returns the accumulated funnel and the number of scans performed.
func (m *Monitor) Stats() (Funnel, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.funnel, m.scans
}
