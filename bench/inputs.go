package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// request is one pre-rendered HTTP request of the script.
type request struct {
	path        string // with query
	contentType string
	body        []byte
	points      int  // points the ack must report as appended
	pooled      bool // body came from the stream's free list
}

// stream is one sender: its model, its one connection, its credentials.
// Requests come out in step order; a stream is consumed once per run and
// a fresh one (same seed) feeds the reference.
type stream struct {
	spec     streamSpec
	tenantID string // set once registered; namespaces the reference's IDs
	key      string

	seed  int64
	nd    *ndjsonModel
	enc   *ndjsonEncoder
	vs    *valueStream
	micro []int64
	profs []*profModel

	client *http.Client
	free   chan []byte // recycled NDJSON body buffers
}

// profTopK is the binaries' default -profile-top-k: series per profiled service.
const profTopK = 200

// newStreams builds every stream's model from the seed. liveStart is the
// first phase-B step and steps the total the run will send.
func newStreams(w workload, seed int64) []*stream {
	liveStart, steps := w.phaseASteps, w.phaseASteps+w.cycles
	out := make([]*stream, len(w.streams))
	for i, spec := range w.streams {
		// The stream's index picks its shape, the seed its noise.
		shape := int64(i) + 1
		s := &stream{spec: spec, seed: seed*1000 + int64(i), free: make(chan []byte, 16)}
		prefix := "svc"
		if spec.tenant != "" {
			prefix = spec.tenant + "-svc"
		}
		switch spec.kind {
		case kindNDJSON:
			s.nd = newNDJSONModel(shape, prefix, spec.services, spec.perService, liveStart)
			s.enc = newNDJSONEncoder(s.nd)
			s.vs = s.nd.stream(s.seed)
			s.micro = make([]int64, len(s.nd.series))
		case kindPprof:
			for sv := 0; sv < spec.services; sv++ {
				// The victims step a few cycles apart, early enough that
				// the step is inside the analysis window during phase B.
				onset := liveStart - 70 + 25*sv
				s.profs = append(s.profs, newProfModel(shape*10+int64(sv), s.seed*10+int64(sv),
					fmt.Sprintf("%s%d", prefix, sv), spec.perService, steps, onset, onset-120))
			}
		}
		// One connection per stream, so a closed loop is exactly one
		// request in flight.
		s.client = &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
		out[i] = s
	}
	return out
}

// rewind returns a stream of the same model positioned at step 0, for the
// reference. It shares the immutable model and profile pools.
func (s *stream) rewind() *stream {
	c := *s
	if s.nd != nil {
		c.vs = s.nd.stream(s.seed)
		c.micro = make([]int64, len(s.nd.series))
	}
	c.free = make(chan []byte, 16)
	return &c
}

func (s *stream) services() []string {
	if s.nd != nil {
		return s.nd.services
	}
	names := make([]string, len(s.profs))
	for i, p := range s.profs {
		names[i] = p.service
	}
	return names
}

func (s *stream) seriesCount() int {
	if s.nd != nil {
		return len(s.nd.series)
	}
	return s.profSeries() * len(s.profs)
}

// profSeries is how many gCPU series one profiled service yields.
func (s *stream) profSeries() int { return min(profTopK, s.spec.perService) }

func (s *stream) requestsPerStep() int {
	if s.spec.wide {
		return 1
	}
	return s.spec.services
}

// stepRequests renders the requests of the next step: one per service.
// Steps must be asked for in order, because the value stream is sequential.
func (s *stream) stepRequests(step int) []*request {
	reqs := make([]*request, 0, s.spec.services)
	if s.nd != nil {
		if got := s.vs.next(s.micro); got != step {
			panic(fmt.Sprintf("bench: stream asked for step %d at step %d", step, got))
		}
		bounds := s.nd.bounds
		if s.spec.wide {
			bounds = []int{0, len(s.nd.series)}
		}
		for sv := 0; sv+1 < len(bounds); sv++ {
			var buf []byte
			select {
			case buf = <-s.free:
			default:
			}
			lo, hi := bounds[sv], bounds[sv+1]
			reqs = append(reqs, &request{
				path: "/ingest", contentType: "application/x-ndjson",
				body:   s.enc.appendBody(buf[:0], lo, hi, step, s.micro),
				points: hi - lo, pooled: true,
			})
		}
		return reqs
	}
	ts := url.QueryEscape(stepTime(step).Format(time.RFC3339))
	for _, p := range s.profs {
		reqs = append(reqs, &request{
			path:        "/profiles?service=" + url.QueryEscape(p.service) + "&time=" + ts,
			contentType: "application/octet-stream",
			body:        p.body(step), points: s.profSeries(),
		})
	}
	return reqs
}

// recycle hands a sent request's buffer back for reuse.
func (s *stream) recycle(r *request) {
	if !r.pooled {
		return
	}
	select {
	case s.free <- r.body:
	default:
	}
}

const requestTimeout = 30 * time.Second

// do sends one request and reads the whole response.
func (s *stream) do(baseURL, method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, baseURL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if s.key != "" {
		req.Header.Set("Authorization", "Bearer "+s.key)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return resp.StatusCode, data, err
}

// ingest sends one ingest request and checks that the ack accounts for
// every point: all appended, none skipped.
func (s *stream) ingest(baseURL string, r *request) error {
	status, data, err := s.do(baseURL, http.MethodPost, r.path, r.contentType, r.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.path, status, bytes.TrimSpace(data))
	}
	var ack struct {
		Appended int `json:"appended"`
		Skipped  int `json:"skipped"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return fmt.Errorf("%s: bad ack: %w", r.path, err)
	}
	if ack.Appended != r.points || ack.Skipped != 0 {
		return fmt.Errorf("%s: ack appended=%d skipped=%d, want %d and 0", r.path, ack.Appended, ack.Skipped, r.points)
	}
	return nil
}

// wireVerdict is what the benchmark keeps of one reported regression.
type wireVerdict struct {
	Metric          string    `json:"metric"`
	ChangePointTime time.Time `json:"change_point_time"`
}

// scanBody is a /scan request body.
func scanBody(service string, at time.Time) []byte {
	return []byte(`{"service":"` + service + `","scan_time":"` + at.Format(time.RFC3339) + `"}`)
}

// scan posts one /scan and returns the reported regressions and the
// response size. wantStatus other than 200 turns the call into a probe.
func (s *stream) scan(baseURL, service string, at time.Time, wantStatus int) ([]wireVerdict, int, error) {
	status, data, err := s.do(baseURL, http.MethodPost, "/scan", "application/json", scanBody(service, at))
	if err != nil {
		return nil, 0, err
	}
	if status != wantStatus {
		return nil, 0, fmt.Errorf("/scan %s: status %d, want %d: %s", service, status, wantStatus, bytes.TrimSpace(data))
	}
	if status != http.StatusOK {
		return nil, len(data), nil
	}
	var resp struct {
		Reported []wireVerdict `json:"reported"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, 0, fmt.Errorf("/scan %s: bad response: %w", service, err)
	}
	return resp.Reported, len(data), nil
}
