package controlplane

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// Quotas bounds one tenant's footprint on the shared store. Zero fields
// take the server's defaults at registration.
type Quotas struct {
	// MaxSeries caps the distinct metric series the tenant may create.
	// A batch that would push the tenant past the cap is rejected whole
	// with a 403 (not a 429: waiting won't help, the tenant must drop
	// series or ask for a bigger quota). Writing at exactly the cap is
	// allowed.
	MaxSeries int `json:"max_series"`
	// RatePerSec refills the tenant's token bucket: the sustained
	// request rate allowed across /ingest, /profiles, and /scan.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket depth — how far above the sustained rate a
	// tenant may momentarily spike before drawing 429 + Retry-After.
	Burst int `json:"burst"`
}

// withDefaults fills zero fields from def.
func (q Quotas) withDefaults(def Quotas) Quotas {
	if q.MaxSeries <= 0 {
		q.MaxSeries = def.MaxSeries
	}
	if q.RatePerSec <= 0 {
		q.RatePerSec = def.RatePerSec
	}
	if q.Burst <= 0 {
		q.Burst = def.Burst
	}
	return q
}

// Tenant is one registered API consumer. Key is the bearer credential;
// it is returned on registration and stored server-side (this is a
// reproduction, not a KMS — production would store a hash).
type Tenant struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Key       string    `json:"key,omitempty"`
	Quotas    Quotas    `json:"quotas"`
	CreatedAt time.Time `json:"created_at"`
}

// tenantRecord is the journaled form of one tenant: the Tenant plus the
// service names it has written, so series-quota usage can be recounted
// from the store after a restart.
type tenantRecord struct {
	Tenant   Tenant   `json:"tenant"`
	Services []string `json:"services,omitempty"`
}

// tenantState is one tenant's live state.
type tenantState struct {
	Tenant
	services map[string]struct{}
	series   map[tsdb.MetricID]struct{}
	bucket   *bucket
}

// TenantStore holds the registered tenants, journaled through the WAL's
// blob journal so registrations and service-set growth survive a crash.
type TenantStore struct {
	mu      sync.Mutex
	journal *wal.Journal
	byID    map[string]*tenantState
	byKey   map[string]*tenantState
	order   []string // IDs in registration order
}

// openTenantStore replays (or creates) the tenant journal at path. The
// series sets are rebuilt by recounting each journaled service's metrics
// in db — usage survives restarts without journaling every series ID.
func openTenantStore(path string, db *tsdb.DB, defaults Quotas, now time.Time) (*TenantStore, error) {
	ts := &TenantStore{
		byID:  make(map[string]*tenantState),
		byKey: make(map[string]*tenantState),
	}
	j, _, err := wal.OpenJournal(path, func(payload []byte) error {
		var rec tenantRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("controlplane: bad tenant record: %w", err)
		}
		ts.applyLocked(rec, defaults, now)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ts.journal = j
	for _, st := range ts.byID {
		for svc := range st.services {
			for _, id := range db.Metrics(namespaceService(st.ID, svc)) {
				st.series[id] = struct{}{}
			}
		}
	}
	return ts, nil
}

// applyLocked installs one journaled record (latest record per ID wins).
// Only used during replay, before the store is shared.
func (ts *TenantStore) applyLocked(rec tenantRecord, defaults Quotas, now time.Time) {
	st, ok := ts.byID[rec.Tenant.ID]
	if !ok {
		st = &tenantState{
			services: make(map[string]struct{}),
			series:   make(map[tsdb.MetricID]struct{}),
		}
		ts.byID[rec.Tenant.ID] = st
		ts.order = append(ts.order, rec.Tenant.ID)
	} else {
		delete(ts.byKey, st.Key)
	}
	st.Tenant = rec.Tenant
	st.Tenant.Quotas = st.Tenant.Quotas.withDefaults(defaults)
	st.bucket = newBucket(st.Tenant.Quotas.RatePerSec, st.Tenant.Quotas.Burst, now)
	for _, svc := range rec.Services {
		st.services[svc] = struct{}{}
	}
	ts.byKey[st.Key] = st
}

// record renders st's journal form. Caller holds ts.mu.
func (st *tenantState) record() tenantRecord {
	rec := tenantRecord{Tenant: st.Tenant}
	for svc := range st.services {
		rec.Services = append(rec.Services, svc)
	}
	sort.Strings(rec.Services)
	return rec
}

// journalLocked appends st's current record. Caller holds ts.mu.
func (ts *TenantStore) journalLocked(st *tenantState) error {
	payload, err := json.Marshal(st.record())
	if err != nil {
		return err
	}
	return ts.journal.Append(payload)
}

// Register creates a tenant with a fresh random ID and API key, journals
// it durably, and returns it (Key included — the only time the caller
// sees it).
func (ts *TenantStore) Register(name string, q Quotas, defaults Quotas, now time.Time) (Tenant, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return Tenant{}, fmt.Errorf("controlplane: tenant name required")
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st := &tenantState{
		Tenant: Tenant{
			ID:        "t-" + randomHex(6),
			Name:      name,
			Key:       randomHex(24),
			Quotas:    q.withDefaults(defaults),
			CreatedAt: now.UTC(),
		},
		services: make(map[string]struct{}),
		series:   make(map[tsdb.MetricID]struct{}),
	}
	st.bucket = newBucket(st.Quotas.RatePerSec, st.Quotas.Burst, now)
	if err := ts.journalLocked(st); err != nil {
		return Tenant{}, err
	}
	ts.byID[st.ID] = st
	ts.byKey[st.Key] = st
	ts.order = append(ts.order, st.ID)
	return st.Tenant, nil
}

// byAPIKey resolves a bearer key to its tenant state (nil if unknown).
func (ts *TenantStore) byAPIKey(key string) *tenantState {
	if key == "" {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.byKey[key]
}

// get returns the tenant state for id (nil if unknown).
func (ts *TenantStore) get(id string) *tenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.byID[id]
}

// List returns every tenant in registration order, keys redacted.
func (ts *TenantStore) List() []Tenant {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Tenant, 0, len(ts.order))
	for _, id := range ts.order {
		t := ts.byID[id].Tenant
		t.Key = ""
		out = append(out, t)
	}
	return out
}

// Close closes the tenant journal.
func (ts *TenantStore) Close() error { return ts.journal.Close() }

// randomHex returns n crypto-random bytes hex-encoded.
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("controlplane: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b)
}

// namespaceService maps a tenant-visible service name into the shared
// TSDB's namespace: "<tenantID>:<service>". MetricIDs are
// service/entity/metric, so prefixing the service component isolates
// every tenant series under a key no other tenant's requests can form.
func namespaceService(tenantID, service string) string {
	return tenantID + ":" + service
}

// unnamespaceService strips the tenant prefix for responses. Unprefixed
// names pass through.
func unnamespaceService(tenantID, service string) string {
	return strings.TrimPrefix(service, tenantID+":")
}

// namespaceID rewrites one metric ID into the tenant's namespace.
func namespaceID(tenantID string, id tsdb.MetricID) tsdb.MetricID {
	service, entity, metric := id.Parts()
	if service == "" {
		// Malformed IDs (no service part) still get isolated: the whole
		// ID becomes the metric under the tenant's empty service.
		return tsdb.ID(namespaceService(tenantID, ""), entity, metric)
	}
	return tsdb.ID(namespaceService(tenantID, service), entity, metric)
}

// quotaError is the StatusError the namespacing store returns when a
// batch would exceed the tenant's series quota; /ingest maps it to 403.
type quotaError struct {
	tenant  string
	have    int
	add     int
	max     int
	message string
}

func (e *quotaError) Error() string {
	if e.message != "" {
		return e.message
	}
	return fmt.Sprintf("tenant %s series quota exceeded: %d existing + %d new > %d allowed",
		e.tenant, e.have, e.add, e.max)
}

func (e *quotaError) HTTPStatus() int { return http.StatusForbidden }

// idLenError is the StatusError the namespacing store returns when the
// tenant prefix pushes a metric ID past tsdb.MaxIDLen: a 400, like an ID
// that was too long as sent.
type idLenError struct{ error }

func (idLenError) HTTPStatus() int { return http.StatusBadRequest }
