package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"fbdetect/internal/tsdb"
)

// OpKindBackfill, the one operation kind, writes a deterministic
// synthetic series (optionally with a step change) through the tenant's
// quota-enforced store — the bulk-load path, and the crash drill's
// workhorse: its writes are idempotent TSDB appends, so a SIGKILL
// mid-backfill re-runs to the same final state. No operation scans: a
// scan files what it reports in the pipeline's cross-scan memory, so
// its report must go to the caller of /scan and nowhere else.
const OpKindBackfill = "backfill"

// Backfill abuse bounds: one operation may not write more points or
// sleep longer per batch than these, so a hostile (or fuzzed) request
// cannot wedge a job worker.
const (
	maxBackfillPoints     = 1 << 20
	maxBackfillThrottleMS = 10_000
)

// registerRunners installs the built-in operation kind.
func (s *Server) registerRunners() {
	s.queue.register(OpKindBackfill, s.runBackfill)
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
