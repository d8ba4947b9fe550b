package distributed

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// Rejection reasons the shared lifecycle raises on both endpoints, each
// exported again under the endpoint's own prefix.
const (
	reasonBadMethod   = "bad_method"
	reasonTooLarge    = "too_large"
	reasonBusy        = "busy"
	reasonStoreFailed = "store_failed"
	reasonQuota       = "quota"
)

// intake is the request lifecycle /ingest and /profiles share: POST only,
// an in-flight slot or 429 + Retry-After, a capped gzip-aware body or
// 413, the endpoint's decoder or 400, a 400 for a metric ID longer than
// tsdb.MaxIDLen, one AppendBatch, then the counters and the endpoint's
// JSON ack. A store's StatusError is answered with its own status (the
// control plane's quota 403: a 500 would invite a retry the quota will
// refuse again; its 400 for an ID the tenant prefix makes too long).
type intake struct {
	store      IngestStore
	maxBody    int64
	retryAfter time.Duration
	sem        chan struct{}

	busyMsg     string // the 429 body
	tooLargeMsg string // the 413 body, a format taking maxBody
	badBody     string // the reason for a body that cannot be read

	rejected map[string]*obs.Counter // by reason; nil when uninstrumented
	points   *obs.Counter
	skipped  *obs.Counter
	bytes    *obs.Counter
}

// instrumentRejected registers one counter of the rejected metric per
// reason, the lifecycle's and the endpoint's, so every reason shows (as
// zero) before its first rejection.
func (in *intake) instrumentRejected(reg *obs.Registry, name, help string, reasons ...string) {
	in.rejected = map[string]*obs.Counter{}
	for _, r := range append([]string{reasonBadMethod, reasonTooLarge, reasonBusy,
		reasonStoreFailed, reasonQuota}, reasons...) {
		in.rejected[r] = reg.NewCounter(name, help, obs.Labels{"reason": r})
	}
}

// batch is one decoded request: the points to append, and the ack to
// answer with once the store has taken them.
type batch struct {
	pts []tsdb.Point
	ack func(appended int) any
}

// rejection is a 400 a decoder answers with, under its own reason.
type rejection struct{ reason, msg string }

// decodeBody turns a request body into a batch.
type decodeBody func(raw []byte) (batch, *rejection)

// serve runs one request through the lifecycle. open is the endpoint's
// decoder: it sees the request before the body is read, so a bad query
// string is refused without reading the upload, and returns what decodes
// the body.
func (in *intake) serve(rw http.ResponseWriter, req *http.Request, open func(*http.Request) (decodeBody, *rejection)) {
	if req.Method != http.MethodPost {
		in.reject(rw, reasonBadMethod, "POST only", http.StatusMethodNotAllowed)
		return
	}
	select {
	case in.sem <- struct{}{}:
		defer func() { <-in.sem }()
	default:
		rw.Header().Set("Retry-After", RetryAfterSeconds(in.retryAfter))
		in.reject(rw, reasonBusy, in.busyMsg, http.StatusTooManyRequests)
		return
	}
	decode, rej := open(req)
	if rej != nil {
		in.reject(rw, rej.reason, rej.msg, http.StatusBadRequest)
		return
	}
	// Read the whole (capped, possibly gzipped) body before decoding: a
	// batch applies atomically or not at all, and reading first keeps
	// "too large" (413, don't retry — split) distinct from a line
	// truncated mid-stream.
	raw, err := readBody(rw, req, in.maxBody)
	if errors.Is(err, errBodyTooLarge) {
		in.reject(rw, reasonTooLarge, fmt.Sprintf(in.tooLargeMsg, in.maxBody),
			http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		in.reject(rw, in.badBody, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	b, rej := decode(raw)
	if rej != nil {
		in.reject(rw, rej.reason, rej.msg, http.StatusBadRequest)
		return
	}
	// An ID the durable store cannot hold is refused before anything is
	// logged, whichever store sits behind the endpoint.
	if err := tsdb.CheckIDLen(b.pts); err != nil {
		in.reject(rw, in.badBody, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	appended, err := in.store.AppendBatch(b.pts)
	if err != nil {
		var se StatusError
		if errors.As(err, &se) {
			reason := reasonQuota
			if se.HTTPStatus() == http.StatusBadRequest {
				reason = in.badBody
			}
			in.reject(rw, reason, err.Error(), se.HTTPStatus())
			return
		}
		in.reject(rw, reasonStoreFailed, "append failed: "+err.Error(),
			http.StatusInternalServerError)
		return
	}
	in.points.Add(float64(appended))
	in.skipped.Add(float64(len(b.pts) - appended))
	in.bytes.Add(float64(len(raw)))
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(b.ack(appended))
}

// reject counts one rejection under reason and answers it.
func (in *intake) reject(rw http.ResponseWriter, reason, msg string, status int) {
	in.rejected[reason].Inc()
	http.Error(rw, msg, status)
}

// RetryAfterSeconds renders d as a whole-second Retry-After value,
// rounding up so the hint never understates the wait.
func RetryAfterSeconds(d time.Duration) string {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// errBodyTooLarge is the shared "split the batch / shrink the profile"
// rejection: callers map it to 413, which clients must not retry
// verbatim.
var errBodyTooLarge = errors.New("request body too large")

// readBody reads a request body subject to limit, honoring
// `Content-Encoding: gzip`. The limit applies to the *decoded* size: a
// tiny gzip bomb inflating past it is rejected exactly like an oversized
// plain body (413), never buffered. Unknown encodings fail loudly rather
// than being misparsed.
func readBody(rw http.ResponseWriter, req *http.Request, limit int64) ([]byte, error) {
	body := io.Reader(http.MaxBytesReader(rw, req.Body, limit))
	switch enc := strings.ToLower(strings.TrimSpace(req.Header.Get("Content-Encoding"))); enc {
	case "", "identity":
	case "gzip", "x-gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, fmt.Errorf("bad gzip body: %w", err)
		}
		defer zr.Close()
		// The wire-byte cap above still applies underneath; this cap
		// bounds what the stream inflates to.
		raw, err := io.ReadAll(io.LimitReader(zr, limit+1))
		if err != nil {
			return nil, decodeErr(err)
		}
		if int64(len(raw)) > limit {
			return nil, errBodyTooLarge
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("unsupported Content-Encoding %q (use gzip or identity)", enc)
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, decodeErr(err)
	}
	return raw, nil
}

// decodeErr folds http.MaxBytesError into the shared sentinel so callers
// need one branch for "too large" however it was detected.
func decodeErr(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errBodyTooLarge
	}
	return err
}
