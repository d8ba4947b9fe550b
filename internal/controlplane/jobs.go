package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/wal"
)

// OpStatus is the lifecycle state of one async operation.
type OpStatus string

const (
	// OpPending: accepted and journaled, waiting for a job worker.
	OpPending OpStatus = "pending"
	// OpRunning: a job worker is executing it.
	OpRunning OpStatus = "running"
	// OpSucceeded: terminal; Result holds the output.
	OpSucceeded OpStatus = "succeeded"
	// OpFailed: terminal; Error holds the reason.
	OpFailed OpStatus = "failed"
)

// Terminal reports whether the status is final.
func (s OpStatus) Terminal() bool { return s == OpSucceeded || s == OpFailed }

// Operation is one long-running job: submitted with a POST that returns
// 202 + Location: /operations/{id}, polled until Terminal. Every state
// transition is journaled before it is acknowledged, so a SIGKILLed
// server restarts knowing exactly which operations were in flight and
// re-runs them to a terminal state.
type Operation struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Kind      string          `json:"kind"`
	Params    json.RawMessage `json:"params,omitempty"`
	Status    OpStatus        `json:"status"`
	Attempts  int             `json:"attempts"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	CreatedAt time.Time       `json:"created_at"`
	UpdatedAt time.Time       `json:"updated_at"`
}

// maxOpAttempts bounds how many times a crash-interrupted operation is
// re-run before it is declared failed: runners are idempotent, but an
// operation that SIGKILLs the server every time it runs must not wedge
// the queue forever.
const maxOpAttempts = 3

// opRetention caps how many terminal operations a journal compaction
// keeps (oldest evicted first). In-flight operations are always kept.
const opRetention = 512

// journalCompactBytes triggers operation-journal compaction.
const journalCompactBytes = 1 << 20

// OpStore is the journaled operation table.
type OpStore struct {
	mu      sync.Mutex
	journal *wal.Journal
	byID    map[string]*Operation
	order   []string // IDs in creation order

	ops      map[string]*obs.Counter // by status; nil-safe when uninstrumented
	inflight *obs.Gauge
}

// openOpStore replays (or creates) the operation journal at path.
// Recovered non-terminal operations are reset to pending with an
// incremented attempt count; Recovered lists them in creation order for
// the queue to resubmit.
func openOpStore(path string) (*OpStore, []*Operation, error) {
	os := &OpStore{byID: make(map[string]*Operation)}
	j, _, err := wal.OpenJournal(path, func(payload []byte) error {
		var op Operation
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("controlplane: bad operation record: %w", err)
		}
		if _, ok := os.byID[op.ID]; !ok {
			os.order = append(os.order, op.ID)
		}
		os.byID[op.ID] = &op
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	os.journal = j
	var recovered []*Operation
	for _, id := range os.order {
		op := os.byID[id]
		if op.Status.Terminal() {
			continue
		}
		op.Status = OpPending
		op.Attempts++
		if op.Attempts > maxOpAttempts {
			op.Status = OpFailed
			op.Error = fmt.Sprintf("abandoned after %d interrupted attempts", op.Attempts-1)
		}
		if err := os.journalLocked(op); err != nil {
			return nil, nil, err
		}
		if op.Status == OpPending {
			recovered = append(recovered, op)
		}
	}
	return os, recovered, nil
}

// Instrument publishes operation counters to reg.
func (s *OpStore) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = make(map[string]*obs.Counter)
	for _, st := range []OpStatus{OpPending, OpRunning, OpSucceeded, OpFailed} {
		s.ops[string(st)] = reg.NewCounter(MetricOpsTotal,
			"Async operation state transitions, by new status.", obs.Labels{"status": string(st)})
	}
	s.inflight = reg.NewGauge(MetricOpsInFlight,
		"Operations currently pending or running.", nil)
}

// journalLocked appends op's current state. Caller holds s.mu.
func (s *OpStore) journalLocked(op *Operation) error {
	payload, err := json.Marshal(op)
	if err != nil {
		return err
	}
	if err := s.journal.Append(payload); err != nil {
		return err
	}
	if s.journal.Size() > journalCompactBytes {
		s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal to one record per live operation,
// evicting the oldest terminal operations beyond opRetention. Caller
// holds s.mu. Compaction failure is non-fatal (the journal still holds
// every record; it is just bigger than we'd like).
func (s *OpStore) compactLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.byID[id].Status.Terminal() {
			terminal++
		}
	}
	evict := terminal - opRetention
	keep := s.order[:0]
	var payloads [][]byte
	for _, id := range s.order {
		op := s.byID[id]
		if evict > 0 && op.Status.Terminal() {
			evict--
			delete(s.byID, id)
			continue
		}
		keep = append(keep, id)
		if p, err := json.Marshal(op); err == nil {
			payloads = append(payloads, p)
		}
	}
	s.order = append([]string(nil), keep...)
	_ = s.journal.Rewrite(payloads)
}

// create journals a fresh pending operation and returns it.
func (s *OpStore) create(tenant, kind string, params json.RawMessage, now time.Time) (*Operation, error) {
	op := &Operation{
		ID:        "op-" + randomHex(8),
		Tenant:    tenant,
		Kind:      kind,
		Params:    params,
		Status:    OpPending,
		CreatedAt: now.UTC(),
		UpdatedAt: now.UTC(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.journalLocked(op); err != nil {
		return nil, err
	}
	s.byID[op.ID] = op
	s.order = append(s.order, op.ID)
	s.ops[string(OpPending)].Inc()
	s.inflight.Inc()
	return s.snapshotLocked(op), nil
}

// transition moves op to status (with optional result/error), journaling
// the change durably before it becomes visible.
func (s *OpStore) transition(id string, status OpStatus, result json.RawMessage, errMsg string, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	op, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("controlplane: unknown operation %s", id)
	}
	op.Status = status
	op.Result = result
	op.Error = errMsg
	op.UpdatedAt = now.UTC()
	if err := s.journalLocked(op); err != nil {
		return err
	}
	s.ops[string(status)].Inc()
	if status.Terminal() {
		s.inflight.Dec()
	}
	return nil
}

// snapshotLocked deep-copies op for handlers. Caller holds s.mu.
func (s *OpStore) snapshotLocked(op *Operation) *Operation {
	cp := *op
	cp.Params = append(json.RawMessage(nil), op.Params...)
	cp.Result = append(json.RawMessage(nil), op.Result...)
	return &cp
}

// Get returns a copy of the operation (nil if unknown).
func (s *OpStore) Get(id string) *Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	op, ok := s.byID[id]
	if !ok {
		return nil
	}
	return s.snapshotLocked(op)
}

// ListTenant returns the tenant's operations in creation order ("" lists
// all — the admin view).
func (s *OpStore) ListTenant(tenant string) []*Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Operation
	for _, id := range s.order {
		op := s.byID[id]
		if tenant == "" || op.Tenant == tenant {
			out = append(out, s.snapshotLocked(op))
		}
	}
	return out
}

// Close closes the operation journal.
func (s *OpStore) Close() error { return s.journal.Close() }

// RunnerFunc executes one operation kind. It must be idempotent: a
// crash-interrupted operation is re-run from the start on recovery (the
// store's appends are idempotent, so re-running a half-finished backfill
// converges). The returned JSON becomes the operation's Result.
type RunnerFunc func(ctx context.Context, op *Operation) (json.RawMessage, error)

// queue drains pending operations through a fixed pool of job workers.
type queue struct {
	store   *OpStore
	runners map[string]RunnerFunc
	now     func() time.Time
	tracer  *obs.Tracer

	ch     chan string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newQueue(store *OpStore, now func() time.Time, tracer *obs.Tracer) *queue {
	ctx, cancel := context.WithCancel(context.Background())
	return &queue{
		store:   store,
		runners: make(map[string]RunnerFunc),
		now:     now,
		tracer:  tracer,
		ch:      make(chan string, 256),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// register installs the runner for one operation kind.
func (q *queue) register(kind string, fn RunnerFunc) { q.runners[kind] = fn }

// kinds reports the registered operation kinds.
func (q *queue) kinds() []string {
	out := make([]string, 0, len(q.runners))
	for k := range q.runners {
		out = append(out, k)
	}
	return out
}

// start launches n job workers.
func (q *queue) start(n int) {
	for i := 0; i < n; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for {
				select {
				case <-q.ctx.Done():
					return
				case id := <-q.ch:
					q.run(id)
				}
			}
		}()
	}
}

// submit enqueues an already-journaled operation. A full channel fails
// loudly rather than blocking an HTTP handler.
func (q *queue) submit(id string) error {
	select {
	case q.ch <- id:
		return nil
	default:
		return fmt.Errorf("controlplane: job queue full (%d pending)", cap(q.ch))
	}
}

// run executes one operation to a terminal state. Runner panics become
// failures, not server crashes.
func (q *queue) run(id string) {
	op := q.store.Get(id)
	if op == nil || op.Status.Terminal() {
		return
	}
	if err := q.store.transition(id, OpRunning, nil, "", q.now()); err != nil {
		return
	}
	var tr *obs.Trace
	if q.tracer != nil {
		tr = q.tracer.StartTrace("op:" + op.Kind)
		tr.Annotate("operation", op.ID)
		tr.Annotate("tenant", op.Tenant)
	}
	result, err := q.runSafely(op)
	if tr != nil {
		if err != nil {
			tr.Annotate("error", err.Error())
		}
		tr.Finish()
	}
	if err != nil {
		q.store.transition(id, OpFailed, nil, err.Error(), q.now())
		return
	}
	q.store.transition(id, OpSucceeded, result, "", q.now())
}

// runSafely invokes the runner with panic containment.
func (q *queue) runSafely(op *Operation) (result json.RawMessage, err error) {
	fn, ok := q.runners[op.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown operation kind %q", op.Kind)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("operation panicked: %v", r)
		}
	}()
	return fn(q.ctx, op)
}

// stop cancels in-flight runners and waits for the workers to exit.
func (q *queue) stop() {
	q.cancel()
	q.wg.Wait()
}
