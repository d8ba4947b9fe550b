package distributed

import (
	"cmp"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/tsdb"
)

// Profiles rejection reasons, the reason label of MetricProfilesRejected.
const (
	ProfilesReasonBadMethod   = reasonBadMethod
	ProfilesReasonBadRequest  = "bad_request"
	ProfilesReasonBadProfile  = "bad_profile"
	ProfilesReasonTooLarge    = reasonTooLarge
	ProfilesReasonBusy        = reasonBusy
	ProfilesReasonStoreFailed = reasonStoreFailed
	ProfilesReasonQuota       = reasonQuota
)

// Profile-ingestion metric names.
const (
	MetricProfilesTotal       = "fbdetect_profiles_total"
	MetricProfilesRejected    = "fbdetect_profiles_rejected_total"
	MetricProfilesPoints      = "fbdetect_profiles_points_total"
	MetricProfilesSkipped     = "fbdetect_profiles_skipped_points_total"
	MetricProfilesBytes       = "fbdetect_profiles_bytes_total"
	MetricProfilesSubroutines = "fbdetect_profiles_subroutines"
	MetricProfilesParseSecs   = "fbdetect_profiles_parse_seconds"
)

// gcpuGrid is the decimal grid /profiles rounds gCPU to: the finest
// decimal scale in the chunk codec's table (timeseries.ChunkScale(9)).
// On it, sealed chunks and WAL point records store gCPU as scaled
// integers rather than raw or XORed floats. A gCPU value is a sample
// fraction s/n, and two distinct fractions differ by at least 1/n, far
// above 1e-9 for any upload under 1e9 samples; the rounding error, at
// most 5e-10, sits 1e5× below the paper's 0.005% detection floor.
const gcpuGrid = 1e9

// maxInternedIDs caps how many series IDs one handler keeps interned;
// past it the cache starts over.
const maxInternedIDs = 1 << 16

// ProfilesOptions tunes POST /profiles. Zero fields take defaults.
type ProfilesOptions struct {
	// MaxBodyBytes caps one uploaded profile after decompression (default
	// 32 MiB; continuous-profiler CPU profiles run tens of KiB). Larger
	// uploads get a 413.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently processed uploads (default 4);
	// overflow gets 429 + Retry-After, mirroring /ingest.
	MaxInFlight int
	// RetryAfter is the hint sent with 429s (default 1s).
	RetryAfter time.Duration
	// TopK caps how many subroutines one profile may fan out into gCPU
	// points (default 200, ranked by gCPU, ties broken by name). The
	// paper tracks the top ~10k subroutines fleet-wide; per-upload
	// capping keeps one noisy profile from registering thousands of
	// one-off series.
	TopK int
	// Now supplies the fallback timestamp for profiles that carry none
	// (folded text without an explicit ?time=). nil means time.Now.
	Now func() time.Time
}

func (o ProfilesOptions) withDefaults() ProfilesOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.TopK <= 0 {
		o.TopK = 200
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ProfilesResult is the handler's acknowledgment for one uploaded
// profile.
type ProfilesResult struct {
	// Format is the detected wire format: "pprof" or "folded".
	Format string `json:"format"`
	// Service and Time echo where the profile's gCPU points landed.
	Service string    `json:"service"`
	Time    time.Time `json:"time"`
	// Subroutines is how many distinct subroutines the profile resolved
	// to; Capped flags that TopK dropped the tail.
	Subroutines int  `json:"subroutines"`
	Capped      bool `json:"capped,omitempty"`
	// Appended and Skipped mirror IngestResult: points accepted vs
	// already present (idempotent re-uploads).
	Appended int `json:"appended"`
	Skipped  int `json:"skipped"`
}

// ProfilesHandler serves POST /profiles: one continuous-profiler payload
// per request — a gzipped pprof protobuf straight from runtime/pprof, or
// Brendan-Gregg folded text from perf tooling — folded into
// per-subroutine gCPU points and appended to the store through the same
// durable path /ingest uses. This is the front door that turns any real
// Go service into an FBDetect workload (ROADMAP item 1): point the
// profiler's upload hook here and the fleet's subroutine-level series
// accumulate scan-ready.
//
//	curl -X POST 'worker:8080/profiles?service=websvc&time=2024-08-01T09:00:00Z' \
//	  --data-binary @cpu.pb.gz
//
// Each stored gCPU value is the profile's sample fraction rounded to the
// 1e-9 grid (gcpuGrid), within 5e-10 of the exact value, so profile
// series store and log as scaled integers.
//
// Backpressure matches /ingest: 413 for oversized bodies (split or trim
// the profile, don't retry), 429 + Retry-After when too many uploads are
// in flight.
type ProfilesHandler struct {
	intake
	topK int
	now  func() time.Time
	ids  seriesIDs

	accepted    map[string]*obs.Counter // by format; nil when uninstrumented
	subroutines *obs.Histogram
	parseSecs   *obs.Histogram
}

// NewProfilesHandler wraps store with profile parsing, gCPU mapping, and
// backpressure.
func NewProfilesHandler(store IngestStore, opts ProfilesOptions) *ProfilesHandler {
	opts = opts.withDefaults()
	return &ProfilesHandler{intake: intake{
		store: store, maxBody: opts.MaxBodyBytes, retryAfter: opts.RetryAfter,
		sem:         make(chan struct{}, opts.MaxInFlight),
		busyMsg:     "too many profile uploads in flight",
		tooLargeMsg: "profile exceeds %d bytes",
		badBody:     ProfilesReasonBadRequest,
	}, topK: opts.TopK, now: opts.Now}
}

// Instrument publishes the fbdetect_profiles_* metrics to reg. Call
// before serving.
func (h *ProfilesHandler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.accepted = map[string]*obs.Counter{}
	for _, format := range []string{pprofparse.FormatPprof, pprofparse.FormatFolded} {
		h.accepted[format] = reg.NewCounter(MetricProfilesTotal,
			"Profiles accepted, by wire format.", obs.Labels{"format": format})
	}
	h.points = reg.NewCounter(MetricProfilesPoints,
		"gCPU points appended through /profiles.", nil)
	h.skipped = reg.NewCounter(MetricProfilesSkipped,
		"Profile gCPU points skipped as already present (idempotent re-uploads).", nil)
	h.bytes = reg.NewCounter(MetricProfilesBytes,
		"Request body bytes accepted by /profiles.", nil)
	h.subroutines = reg.NewHistogram(MetricProfilesSubroutines,
		"Distinct subroutines resolved per accepted profile.",
		[]float64{1, 5, 10, 25, 50, 100, 200, 500, 1000, 5000}, nil)
	h.parseSecs = reg.NewHistogram(MetricProfilesParseSecs,
		"Profile parse+convert latency.", nil, nil)
	h.instrumentRejected(reg, MetricProfilesRejected,
		"Profile uploads rejected, by reason.", ProfilesReasonBadRequest, ProfilesReasonBadProfile)
}

// ServeHTTP implements POST /profiles.
func (h *ProfilesHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	h.serve(rw, req, h.open)
}

// open reads ?service= and ?time= before the upload is read.
func (h *ProfilesHandler) open(req *http.Request) (decodeBody, *rejection) {
	q := req.URL.Query()
	service := q.Get("service")
	if service == "" {
		return nil, &rejection{ProfilesReasonBadRequest,
			"query parameter service is required (the service the profile was captured from)"}
	}
	var explicitTime time.Time
	if ts := q.Get("time"); ts != "" {
		var err error
		explicitTime, err = time.Parse(time.RFC3339, ts)
		if err != nil {
			return nil, &rejection{ProfilesReasonBadRequest, "bad time parameter (want RFC3339): " + err.Error()}
		}
	}
	contentType := req.Header.Get("Content-Type")
	return func(raw []byte) (batch, *rejection) {
		return h.decode(raw, contentType, service, explicitTime)
	}, nil
}

// decode parses the upload and maps it onto gCPU points for service.
func (h *ProfilesHandler) decode(raw []byte, contentType, service string, explicitTime time.Time) (batch, *rejection) {
	parseStart := time.Now()
	all, format, profTime, err := h.parse(raw, contentType)
	if err != nil {
		return batch{}, &rejection{ProfilesReasonBadProfile, "bad profile: " + err.Error()}
	}
	h.parseSecs.Observe(time.Since(parseStart).Seconds())

	// Timestamp precedence: explicit ?time= beats the profile's own
	// collection time beats the server clock. Points are bucketed by the
	// store's step on append, so any in-bucket skew is absorbed.
	t := explicitTime
	if t.IsZero() {
		t = profTime
	}
	if t.IsZero() {
		t = h.now().UTC()
	}

	pts, capped := h.gcpuPoints(service, t, all)
	return batch{pts: pts, ack: func(appended int) any {
		h.accepted[format].Inc()
		h.subroutines.Observe(float64(len(pts)))
		return ProfilesResult{
			Format: format, Service: service, Time: t,
			Subroutines: len(pts), Capped: capped,
			Appended: appended, Skipped: len(pts) - appended,
		}
	}}, nil
}

// parse decodes the upload in either wire format, returning each
// subroutine's gCPU, the detected format, and the profile's own
// collection time (zero for folded text, which carries none). A pprof
// profile folds straight into gCPU; folded text goes through a SampleSet.
func (h *ProfilesHandler) parse(raw []byte, contentType string) ([]pprofparse.GCPU, string, time.Time, error) {
	var profTime time.Time
	format := pprofparse.DetectFormat(raw, contentType)
	if format == pprofparse.FormatPprof {
		p, err := pprofparse.ParseLimit(raw, h.maxBody)
		if err != nil {
			return nil, format, profTime, err
		}
		if p.TimeNanos > 0 {
			profTime = time.Unix(0, p.TimeNanos).UTC()
		}
		all, _, err := p.Fold(pprofparse.ConvertOptions{})
		return all, format, profTime, err
	}
	ss, _, err := pprofparse.ReadAny(raw, contentType)
	if err != nil {
		return nil, format, profTime, err
	}
	gcpu := ss.GCPUAll()
	all := make([]pprofparse.GCPU, 0, len(gcpu))
	for sub, v := range gcpu {
		all = append(all, pprofparse.GCPU{Subroutine: sub, Value: v})
	}
	return all, format, profTime, nil
}

// gcpuPoints maps a profile's per-subroutine gCPU onto points for one
// time bucket, keeping the topK highest-gCPU subroutines (deterministic:
// ties break by name) and rounding each value to gcpuGrid. Reports
// whether the cap dropped any. It reorders all.
func (h *ProfilesHandler) gcpuPoints(service string, t time.Time, all []pprofparse.GCPU) ([]tsdb.Point, bool) {
	slices.SortFunc(all, func(a, b pprofparse.GCPU) int {
		if c := cmp.Compare(b.Value, a.Value); c != 0 {
			return c
		}
		return strings.Compare(a.Subroutine, b.Subroutine)
	})
	capped := false
	if h.topK > 0 && len(all) > h.topK {
		all, capped = all[:h.topK], true
	}
	// Points sort by subroutine so AppendBatch's per-shard bucketing sees
	// a deterministic order.
	slices.SortFunc(all, func(a, b pprofparse.GCPU) int { return strings.Compare(a.Subroutine, b.Subroutine) })
	pts := make([]tsdb.Point, len(all))
	h.ids.mu.Lock()
	for i, g := range all {
		pts[i] = tsdb.Point{ID: h.ids.get(service, g.Subroutine), T: t, V: math.Round(g.Value*gcpuGrid) / gcpuGrid}
	}
	h.ids.mu.Unlock()
	return pts, capped
}

// seriesIDs interns the gCPU series IDs a handler has built, by service
// and subroutine: a service's subroutines recur in every upload, so a
// hit allocates nothing.
type seriesIDs struct {
	mu sync.Mutex
	m  map[string]map[string]tsdb.MetricID // service → subroutine → ID
	n  int                                 // IDs held, at most maxInternedIDs
}

// get returns the gCPU series ID of service's subroutine sub. The caller
// holds mu.
func (c *seriesIDs) get(service, sub string) tsdb.MetricID {
	if id, ok := c.m[service][sub]; ok {
		return id
	}
	if c.m == nil || c.n >= maxInternedIDs {
		c.m, c.n = map[string]map[string]tsdb.MetricID{}, 0
	}
	subs := c.m[service]
	if subs == nil {
		subs = map[string]tsdb.MetricID{}
		c.m[service] = subs
	}
	id := tsdb.ID(service, sub, "gcpu")
	// sub may alias the upload's decoded bytes: keep a copy instead.
	subs[strings.Clone(sub)] = id
	c.n++
	return id
}
