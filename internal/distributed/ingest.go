package distributed

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/popshift"
	"fbdetect/internal/resilience"
	"fbdetect/internal/tsdb"
)

// IngestStore is the sink /ingest writes into. Both *tsdb.DB (volatile)
// and *wal.Store (durable) implement it; the handler doesn't care which,
// so tests exercise the HTTP surface without touching disk.
type IngestStore interface {
	AppendBatch(pts []tsdb.Point) (int, error)
}

// IngestPoint is one NDJSON line of an /ingest request body:
//
//	{"metric":"web//cpu_usage","time":"2024-01-02T15:04:00Z","value":0.42}
//
// Metric is the full tsdb.MetricID string (service/entity/metric).
type IngestPoint struct {
	Metric string      `json:"metric"`
	Time   time.Time   `json:"time"`
	Value  IngestValue `json:"value"`
}

// IngestValue is a float64 whose JSON form also covers the non-finite
// values JSON numbers cannot express — real series carry NaN for gaps, and
// dropping or mangling those would break recovered-vs-control equivalence.
// Non-finite values travel as the quoted strings "NaN", "+Inf", "-Inf".
type IngestValue float64

func (v IngestValue) MarshalJSON() ([]byte, error) {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(f)
}

func (v *IngestValue) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*v = IngestValue(math.NaN())
		case "+Inf", "Inf":
			*v = IngestValue(math.Inf(1))
		case "-Inf":
			*v = IngestValue(math.Inf(-1))
		default:
			return fmt.Errorf("bad value %q: want a number or NaN/+Inf/-Inf", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = IngestValue(f)
	return nil
}

// IngestResult is the handler's acknowledgment. Skipped counts points the
// store already held (at or before a series' end) — the expected shape of
// a client re-sending a batch whose ack a crash swallowed, not an error.
type IngestResult struct {
	Appended int `json:"appended"`
	Skipped  int `json:"skipped"`
}

// Ingest rejection reasons, the reason label of MetricIngestRejected.
const (
	IngestReasonBadMethod   = reasonBadMethod
	IngestReasonBadJSON     = "bad_json"
	IngestReasonTooLarge    = reasonTooLarge
	IngestReasonBusy        = reasonBusy
	IngestReasonStoreFailed = reasonStoreFailed
	IngestReasonQuota       = reasonQuota
)

// StatusError lets a store reject a batch with a specific HTTP status:
// the control plane's quota-enforcing store returns 403s that must not
// surface as generic 500s (a 500 invites the client to retry; a quota
// rejection should not).
type StatusError interface {
	error
	HTTPStatus() int
}

// Ingestion metric names.
const (
	MetricIngestBatches  = "fbdetect_ingest_batches_total"
	MetricIngestPoints   = "fbdetect_ingest_points_total"
	MetricIngestSkipped  = "fbdetect_ingest_skipped_points_total"
	MetricIngestBytes    = "fbdetect_ingest_bytes_total"
	MetricIngestRejected = "fbdetect_ingest_rejected_total"
)

// IngestOptions tunes the endpoint's backpressure. Zero fields take
// defaults.
type IngestOptions struct {
	// MaxBodyBytes caps one request body (default 8 MiB). Larger bodies
	// get a 413 — the client should split the batch, not retry it.
	MaxBodyBytes int64
	// MaxInFlight caps concurrent ingest requests (default 4). Overflow
	// gets a 429 with a Retry-After hint rather than queueing unboundedly
	// in front of the WAL.
	MaxInFlight int
	// RetryAfter is the hint sent with 429s (default 1s).
	RetryAfter time.Duration
}

func (o IngestOptions) withDefaults() IngestOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// IngestHandler serves POST /ingest: a batch of NDJSON points appended to
// the store in one call, acknowledged only after the store accepted them
// (for a WAL-backed store, after the batch is logged under its sync
// policy). Backpressure is explicit — 413 for oversized bodies, 429 +
// Retry-After when too many batches are in flight — so a streaming client
// slows down instead of piling work onto a struggling worker.
type IngestHandler struct {
	intake
	batches *obs.Counter
}

// NewIngestHandler wraps store with backpressure and accounting.
func NewIngestHandler(store IngestStore, opts IngestOptions) *IngestHandler {
	opts = opts.withDefaults()
	return &IngestHandler{intake: intake{
		store: store, maxBody: opts.MaxBodyBytes, retryAfter: opts.RetryAfter,
		sem:         make(chan struct{}, opts.MaxInFlight),
		busyMsg:     "too many ingest batches in flight",
		tooLargeMsg: "body exceeds %d bytes; split the batch",
		badBody:     IngestReasonBadJSON,
	}}
}

// Instrument publishes the fbdetect_ingest_* counters to reg. Call before
// serving.
func (h *IngestHandler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.batches = reg.NewCounter(MetricIngestBatches,
		"Ingest batches acknowledged.", nil)
	h.points = reg.NewCounter(MetricIngestPoints,
		"Points appended through /ingest.", nil)
	h.skipped = reg.NewCounter(MetricIngestSkipped,
		"Ingested points skipped as already present (idempotent re-sends).", nil)
	h.bytes = reg.NewCounter(MetricIngestBytes,
		"Request body bytes accepted by /ingest.", nil)
	h.instrumentRejected(reg, MetricIngestRejected,
		"Ingest requests rejected, by reason.", IngestReasonBadJSON)
}

// ServeHTTP implements POST /ingest.
func (h *IngestHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	h.serve(rw, req, h.open)
}

// open needs nothing from the URL: every NDJSON line names its series
// and time.
func (h *IngestHandler) open(*http.Request) (decodeBody, *rejection) {
	return h.decode, nil
}

func (h *IngestHandler) decode(raw []byte) (batch, *rejection) {
	pts, err := decodeNDJSON(raw)
	if err != nil {
		return batch{}, &rejection{IngestReasonBadJSON, "bad request: " + err.Error()}
	}
	return batch{pts: pts, ack: func(appended int) any {
		h.batches.Inc()
		return IngestResult{Appended: appended, Skipped: len(pts) - appended}
	}}, nil
}

// decodeNDJSON parses one point per line. Blank lines are allowed (a
// trailing newline is the natural way to terminate a stream).
func decodeNDJSON(data []byte) ([]tsdb.Point, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var pts []tsdb.Point
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var p IngestPoint
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if p.Metric == "" || p.Time.IsZero() {
			return nil, fmt.Errorf("line %d: metric and time required", line)
		}
		id := tsdb.MetricID(p.Metric)
		// Stratum-tagged entities ("base@gen=..;region=..") are canonicalized
		// so external clients writing tag keys in any order land on the same
		// series the pop-shift stage reads; untagged metrics pass through.
		if service, entity, name := id.Parts(); service != "" {
			if c := popshift.CanonicalEntity(entity); c != entity {
				id = tsdb.ID(service, c, name)
			}
		}
		pts = append(pts, tsdb.Point{ID: id, T: p.Time, V: float64(p.Value)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

// IngestClient streams point batches to a worker's /ingest endpoint,
// retrying transient failures (connection errors, 5xx, 429) under a
// resilience policy and honoring the server's Retry-After hints. A batch
// is only "sent" once acknowledged — and because the server appends
// idempotently, re-sending a batch whose ack was lost to a crash is safe.
type IngestClient struct {
	url    string
	client *http.Client
	retry  *resilience.Retryer
}

// NewIngestClient returns a client for baseURL (e.g.
// "http://10.0.0.1:8080"). client may be nil (http.DefaultClient); clock
// may be nil (real time).
func NewIngestClient(baseURL string, client *http.Client, policy resilience.Policy, clock resilience.Clock, seed int64) *IngestClient {
	if client == nil {
		client = http.DefaultClient
	}
	return &IngestClient{
		url:    baseURL + "/ingest",
		client: client,
		retry:  resilience.NewRetryer(policy, clock, seed),
	}
}

// Send posts pts as one NDJSON batch and returns the server's
// acknowledgment, retrying until acked or the policy's budget is spent.
func (c *IngestClient) Send(ctx context.Context, pts []tsdb.Point) (IngestResult, error) {
	body := EncodeNDJSON(pts)
	return resilience.Do(ctx, c.retry, func(ctx context.Context) (IngestResult, error) {
		return c.post(ctx, body)
	})
}

// post issues one attempt.
func (c *IngestClient) post(ctx context.Context, body []byte) (IngestResult, error) {
	var res IngestResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return res, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.client.Do(req)
	if err != nil {
		return res, fmt.Errorf("distributed: posting to %s: %w", c.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		serr := fmt.Errorf("distributed: %s: %s: %s", c.url, resp.Status, bytes.TrimSpace(msg))
		retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		if !retryable {
			return res, resilience.Permanent(serr)
		}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			return res, resilience.RetryAfter(serr, time.Duration(secs)*time.Second)
		}
		return res, serr
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res); err != nil {
		return res, fmt.Errorf("distributed: decoding ingest ack: %w", err)
	}
	return res, nil
}

// EncodeNDJSON renders pts in the /ingest wire format, one JSON object
// per line.
func EncodeNDJSON(pts []tsdb.Point) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range pts {
		enc.Encode(IngestPoint{Metric: string(p.ID), Time: p.T, Value: IngestValue(p.V)}) // Encode appends '\n'
	}
	return buf.Bytes()
}
