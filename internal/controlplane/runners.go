package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"fbdetect/internal/tsdb"
)

// Built-in operation kinds.
const (
	// OpKindBackfill writes a deterministic synthetic series (optionally
	// with a step change) through the tenant's quota-enforced store —
	// the bulk-load path, and the crash drill's workhorse: its writes
	// are idempotent TSDB appends, so a SIGKILL mid-backfill re-runs to
	// the same final state.
	OpKindBackfill = "backfill"
	// OpKindSweep scans one tenant service and reports, for a ladder of
	// thresholds, how many regressions each floor would surface — the
	// floor-curve sweep used to pick a deployment threshold.
	OpKindSweep = "sweep"
)

// Backfill abuse bounds: one operation may not write more points or
// sleep longer per batch than these, so a hostile (or fuzzed) request
// cannot wedge a job worker.
const (
	maxBackfillPoints     = 1 << 20
	maxBackfillThrottleMS = 10_000
)

// registerRunners installs the built-in operation kinds.
func (s *Server) registerRunners() {
	s.queue.register(OpKindBackfill, s.runBackfill)
	s.queue.register(OpKindSweep, s.runSweep)
}

// backfillParams parameterizes one backfill operation.
type backfillParams struct {
	Service string  `json:"service"`
	Entity  string  `json:"entity"`
	Metric  string  `json:"metric"`
	Start   string  `json:"start"` // RFC 3339; defaults to Count steps before now
	StepSec int     `json:"step_seconds"`
	Count   int     `json:"count"`
	Base    float64 `json:"base"`
	// StepAt/Factor plant a level shift at sample index StepAt: values
	// from there on are Base*Factor — a synthetic regression for the
	// detection pipeline to find.
	StepAt int     `json:"step_at"`
	Factor float64 `json:"factor"`
	// ThrottleMS sleeps between batches, stretching the run so crash
	// drills have a window to SIGKILL the server mid-operation.
	ThrottleMS int `json:"throttle_ms"`
	Batch      int `json:"batch"`
}

// runBackfill generates the series and appends it through the tenant's
// namespacing store, so quota enforcement and service tracking apply to
// backfills exactly as to live ingest.
func (s *Server) runBackfill(ctx context.Context, op *Operation) (json.RawMessage, error) {
	var p backfillParams
	if err := json.Unmarshal(op.Params, &p); err != nil {
		return nil, fmt.Errorf("bad backfill params: %w", err)
	}
	if p.Service == "" || p.Metric == "" || p.Count <= 0 {
		return nil, fmt.Errorf("backfill requires service, metric, and count > 0")
	}
	if p.Count > maxBackfillPoints {
		return nil, fmt.Errorf("backfill count %d exceeds limit %d", p.Count, maxBackfillPoints)
	}
	if p.ThrottleMS > maxBackfillThrottleMS {
		return nil, fmt.Errorf("backfill throttle_ms %d exceeds limit %d", p.ThrottleMS, maxBackfillThrottleMS)
	}
	st := s.tenants.get(op.Tenant)
	if st == nil {
		return nil, fmt.Errorf("tenant %s no longer exists", op.Tenant)
	}
	if p.Entity == "" {
		p.Entity = "host0"
	}
	if p.StepSec <= 0 {
		p.StepSec = int(step / time.Second)
	}
	if p.Base == 0 {
		p.Base = 100
	}
	if p.Factor == 0 {
		p.Factor = 1
	}
	if p.Batch <= 0 {
		p.Batch = 64
	}
	step := time.Duration(p.StepSec) * time.Second
	start := s.now().Add(-time.Duration(p.Count) * step)
	if p.Start != "" {
		t, err := time.Parse(time.RFC3339, p.Start)
		if err != nil {
			return nil, fmt.Errorf("bad backfill start: %w", err)
		}
		start = t
	}

	store := tenantStore{s: s, st: st}
	id := tsdb.ID(p.Service, p.Entity, p.Metric)
	written := 0
	for off := 0; off < p.Count; off += p.Batch {
		if err := ctx.Err(); err != nil {
			// Server shutting down: the journaled pending state re-runs
			// this operation (idempotently) after restart.
			return nil, err
		}
		n := p.Batch
		if off+n > p.Count {
			n = p.Count - off
		}
		pts := make([]tsdb.Point, n)
		for i := 0; i < n; i++ {
			k := off + i
			v := p.Base
			if p.StepAt > 0 && k >= p.StepAt {
				v = p.Base * p.Factor
			}
			pts[i] = tsdb.Point{ID: id, T: start.Add(time.Duration(k) * step), V: v}
		}
		n, err := store.AppendBatch(pts)
		if err != nil {
			return nil, err
		}
		written += n
		if p.ThrottleMS > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(p.ThrottleMS) * time.Millisecond):
			}
		}
	}
	return json.Marshal(map[string]any{
		"written": written,
		"series":  string(id),
		"start":   start.UTC().Format(time.RFC3339),
		"end":     start.Add(time.Duration(p.Count-1) * step).UTC().Format(time.RFC3339),
	})
}

// sweepParams parameterizes one floor-curve sweep.
type sweepParams struct {
	Service    string    `json:"service"`
	ScanTime   time.Time `json:"scan_time"`
	Thresholds []float64 `json:"thresholds"`
}

// sweepPoint is one rung of the resulting floor curve.
type sweepPoint struct {
	Threshold float64 `json:"threshold"`
	Reported  int     `json:"reported"`
}

// runSweep scans the tenant's service once (through the shared worker,
// serialized with HTTP /scan on the pipeline mutex) and counts how many
// reported regressions clear each candidate threshold.
func (s *Server) runSweep(ctx context.Context, op *Operation) (json.RawMessage, error) {
	var p sweepParams
	if err := json.Unmarshal(op.Params, &p); err != nil {
		return nil, fmt.Errorf("bad sweep params: %w", err)
	}
	if p.Service == "" {
		return nil, fmt.Errorf("sweep requires service")
	}
	if p.ScanTime.IsZero() {
		p.ScanTime = s.now()
	}
	if len(p.Thresholds) == 0 {
		p.Thresholds = []float64{0.0005, 0.001, 0.005, 0.01, 0.05}
	}
	st := s.tenants.get(op.Tenant)
	if st == nil {
		return nil, fmt.Errorf("tenant %s no longer exists", op.Tenant)
	}
	resp, err := s.scanTenantService(ctx, st, p.Service, p.ScanTime)
	if err != nil {
		return nil, err
	}
	sort.Float64s(p.Thresholds)
	curve := make([]sweepPoint, len(p.Thresholds))
	for i, th := range p.Thresholds {
		n := 0
		for _, r := range resp.Reported {
			if math.Abs(r.Relative) >= th {
				n++
			}
		}
		curve[i] = sweepPoint{Threshold: th, Reported: n}
	}
	return json.Marshal(map[string]any{
		"service": p.Service,
		"curve":   curve,
		"funnel":  resp.Funnel,
	})
}
