// Package tracing implements the end-to-end request tracing FBDetect uses
// for endpoint-level regression detection (paper §3, citing Canopy): an
// endpoint request may involve asynchronous and concurrent processing
// across multiple threads and subroutines, and the endpoint's cost is the
// aggregate of all subroutine costs attributed to the request.
//
// A TraceSpan is one unit of attributed work (a subroutine execution on
// some thread); a RequestTrace groups the spans of one request under an
// endpoint name. The Aggregator turns request traces into per-endpoint
// cost totals, from which endpoint-level time series are derived.
package tracing

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// TraceSpan is one unit of work attributed to a request: a subroutine
// execution with its exclusive CPU cost. Spans may come from different
// threads or async continuations; attribution is by TraceID.
type TraceSpan struct {
	Subroutine string
	Thread     int
	CPU        time.Duration // exclusive CPU time
	Start      time.Time
}

// RequestTrace is one end-to-end request: every span attributed to it
// across threads, plus the endpoint that served it.
type RequestTrace struct {
	TraceID  string
	Endpoint string // user-facing URL or RPC method
	Spans    []TraceSpan
}

// TotalCPU returns the aggregate exclusive CPU across all spans — the
// endpoint-level cost the paper monitors.
func (t *RequestTrace) TotalCPU() time.Duration {
	var sum time.Duration
	for _, s := range t.Spans {
		sum += s.CPU
	}
	return sum
}

// SubroutineBreakdown returns per-subroutine CPU totals within the trace.
func (t *RequestTrace) SubroutineBreakdown() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.Spans {
		out[s.Subroutine] += s.CPU
	}
	return out
}

// Validate reports structural problems: an empty endpoint, no spans, or a
// span with negative cost.
func (t *RequestTrace) Validate() error {
	if t.Endpoint == "" {
		return fmt.Errorf("tracing: trace %s has no endpoint", t.TraceID)
	}
	if len(t.Spans) == 0 {
		return fmt.Errorf("tracing: trace %s has no spans", t.TraceID)
	}
	for _, s := range t.Spans {
		if s.CPU < 0 {
			return fmt.Errorf("tracing: trace %s span %s has negative cost", t.TraceID, s.Subroutine)
		}
	}
	return nil
}

// EndpointStats summarizes one endpoint over an aggregation bucket.
type EndpointStats struct {
	Endpoint string
	Requests int
	TotalCPU time.Duration
	// MeanCPU is TotalCPU / Requests.
	MeanCPU time.Duration
	// Subroutines holds per-subroutine totals, supporting drill-down from
	// an endpoint-level regression to the responsible subroutine.
	Subroutines map[string]time.Duration
}

// Aggregator accumulates request traces into per-endpoint statistics.
// It is safe for concurrent use; Snapshot drains the current bucket.
type Aggregator struct {
	mu    sync.Mutex
	stats map[string]*EndpointStats
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{stats: map[string]*EndpointStats{}}
}

// Record adds one request trace; invalid traces are rejected.
func (a *Aggregator) Record(t *RequestTrace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.stats[t.Endpoint]
	if !ok {
		st = &EndpointStats{Endpoint: t.Endpoint, Subroutines: map[string]time.Duration{}}
		a.stats[t.Endpoint] = st
	}
	st.Requests++
	st.TotalCPU += t.TotalCPU()
	for sub, cpu := range t.SubroutineBreakdown() {
		st.Subroutines[sub] += cpu
	}
	return nil
}

// Snapshot returns the accumulated per-endpoint stats sorted by endpoint
// name and resets the aggregator for the next bucket.
func (a *Aggregator) Snapshot() []EndpointStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]EndpointStats, 0, len(a.stats))
	for _, st := range a.stats {
		s := *st
		if s.Requests > 0 {
			s.MeanCPU = s.TotalCPU / time.Duration(s.Requests)
		}
		// Copy the map so the caller owns it.
		subs := make(map[string]time.Duration, len(st.Subroutines))
		for k, v := range st.Subroutines {
			subs[k] = v
		}
		s.Subroutines = subs
		out = append(out, s)
	}
	a.stats = map[string]*EndpointStats{}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}
