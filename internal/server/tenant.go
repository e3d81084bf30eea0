package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the multi-tenant admission layer: API-key
// authentication, per-tenant quotas (jobs in flight, cells per
// second, cumulative trace bytes) and priority tiers for the
// admission queue. A server started without a tenants config runs
// open — no auth, no quotas, one default tier — exactly the PR 4
// behavior, so every single-tenant deployment and test is untouched.
// With a config loaded, every /v1 request must present a known API
// key; the typed rejection taxonomy is
//
//	401 unauthorized      missing or unknown API key
//	403 forbidden         known tenant, disallowed action (foreign
//	                      job, fault plan without allow_faults)
//	429 quota_*           the named tenant quota is exhausted
//
// and every rejection names the tenant limit it enforced, so a
// client can tell a full queue from an exhausted quota without
// parsing prose.

// TenantsConfigSchemaVersion identifies the tenants-file layout.
const TenantsConfigSchemaVersion = 1

// minAPIKeyLen rejects trivially guessable keys at config load.
const minAPIKeyLen = 8

// Tenant is one API principal: its key, its scheduling tier, and its
// quotas. All three quotas are required and must be positive — an
// unlimited tenant is expressed by a large number, not a zero that is
// one typo away from "reject everything".
type Tenant struct {
	// Name identifies the tenant in metrics, logs and error bodies.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>"
	// or "X-API-Key: <key>".
	Key string `json:"key"`
	// Tier names the admission priority tier (must be one of the
	// configured tiers; empty means the lowest tier).
	Tier string `json:"tier,omitempty"`

	// MaxJobsInFlight caps this tenant's jobs in non-terminal states
	// (queued + running).
	MaxJobsInFlight int `json:"max_jobs_in_flight"`
	// CellsPerSec is the sustained admission rate in cells per
	// second, enforced by a token bucket charged at submission with
	// the job's cell count. The bucket holds one second of burst and
	// admits into debt, so a single job larger than the burst is
	// admitted and the debt delays the tenant's next admission.
	CellsPerSec float64 `json:"cells_per_sec"`
	// MaxTraceBytes caps the cumulative stored bytes of this
	// tenant's accepted trace uploads (deduped re-uploads are free).
	MaxTraceBytes int64 `json:"max_trace_bytes"`

	// AllowFaults permits this tenant to submit fault_plan jobs when
	// the server itself runs with fault injection enabled. Without
	// it, a fault_plan submission is a 403.
	AllowFaults bool `json:"allow_faults,omitempty"`
}

// TierSpec is one admission tier: jobs from higher-weight tiers are
// always dequeued before lower-weight ones.
type TierSpec struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}

// DefaultTiers is the tier lineup used when a tenants config does not
// declare its own.
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Name: "gold", Weight: 100},
		{Name: "silver", Weight: 10},
		{Name: "bronze", Weight: 1},
	}
}

// TenantsConfig is the -tenants-file document.
type TenantsConfig struct {
	SchemaVersion int        `json:"schema_version"`
	Tiers         []TierSpec `json:"tiers,omitempty"`
	Tenants       []Tenant   `json:"tenants"`
}

// ParseTenantsConfig decodes and validates a tenants-file document.
// Unknown fields, trailing data, duplicate names or keys, unknown
// tiers, and zero or negative quotas are all rejected — a quota typo
// must fail loudly at boot, not silently admit the world.
func ParseTenantsConfig(data []byte) (TenantsConfig, error) {
	var cfg TenantsConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return TenantsConfig{}, fmt.Errorf("tenants config: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return TenantsConfig{}, errors.New("tenants config: trailing data after JSON document")
	}
	if err := cfg.Validate(); err != nil {
		return TenantsConfig{}, err
	}
	return cfg, nil
}

// LoadTenantsFile reads and parses a tenants config from disk.
func LoadTenantsFile(path string) (TenantsConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return TenantsConfig{}, fmt.Errorf("tenants config: %w", err)
	}
	return ParseTenantsConfig(b)
}

// Validate reports the first structural problem with the config.
func (c TenantsConfig) Validate() error {
	if c.SchemaVersion != TenantsConfigSchemaVersion {
		return fmt.Errorf("tenants config: schema_version %d, want %d", c.SchemaVersion, TenantsConfigSchemaVersion)
	}
	tiers := c.Tiers
	if len(tiers) == 0 {
		tiers = DefaultTiers()
	}
	tierNames := make(map[string]bool, len(tiers))
	for _, tr := range tiers {
		if tr.Name == "" {
			return errors.New("tenants config: tier with empty name")
		}
		if tr.Weight <= 0 {
			return fmt.Errorf("tenants config: tier %q: weight %d must be positive", tr.Name, tr.Weight)
		}
		if tierNames[tr.Name] {
			return fmt.Errorf("tenants config: duplicate tier %q", tr.Name)
		}
		tierNames[tr.Name] = true
	}
	if len(c.Tenants) == 0 {
		return errors.New("tenants config: no tenants")
	}
	names := make(map[string]bool, len(c.Tenants))
	keys := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.Name == "" {
			return errors.New("tenants config: tenant with empty name")
		}
		if names[t.Name] {
			return fmt.Errorf("tenants config: duplicate tenant %q", t.Name)
		}
		names[t.Name] = true
		if len(t.Key) < minAPIKeyLen {
			return fmt.Errorf("tenants config: tenant %q: key shorter than %d characters", t.Name, minAPIKeyLen)
		}
		if keys[t.Key] {
			return fmt.Errorf("tenants config: tenant %q: key already assigned to another tenant", t.Name)
		}
		keys[t.Key] = true
		if t.Tier != "" && !tierNames[t.Tier] {
			return fmt.Errorf("tenants config: tenant %q: unknown tier %q", t.Name, t.Tier)
		}
		if t.MaxJobsInFlight <= 0 {
			return fmt.Errorf("tenants config: tenant %q: max_jobs_in_flight %d must be positive", t.Name, t.MaxJobsInFlight)
		}
		if !(t.CellsPerSec > 0) { // rejects zero, negatives and NaN
			return fmt.Errorf("tenants config: tenant %q: cells_per_sec %v must be positive", t.Name, t.CellsPerSec)
		}
		if t.MaxTraceBytes <= 0 {
			return fmt.Errorf("tenants config: tenant %q: max_trace_bytes %d must be positive", t.Name, t.MaxTraceBytes)
		}
	}
	return nil
}

// quotaError is a typed quota rejection: which tenant, which limit,
// and the machine-readable reason for the error taxonomy.
type quotaError struct {
	tenant string
	reason string // one of the Reason* constants
	msg    string
}

func (e *quotaError) Error() string { return e.msg }

// Machine-readable rejection reasons carried in every non-2xx body's
// "reason" field. Clients switch on these instead of parsing prose.
const (
	ReasonUnauthorized    = "unauthorized"
	ReasonForbidden       = "forbidden"
	ReasonQueueFull       = "queue_full"
	ReasonQuotaJobs       = "quota_jobs_in_flight"
	ReasonQuotaCellRate   = "quota_cells_per_sec"
	ReasonQuotaTraceBytes = "quota_trace_bytes"
	ReasonDraining        = "draining"
	ReasonBadRequest      = "bad_request"
	ReasonNotFound        = "not_found"
	ReasonTooLarge        = "too_large"
	ReasonInternal        = "internal"
	ReasonUnavailable     = "unavailable"
)

// tenantState is one tenant's runtime ledger. All fields are guarded
// by mu; the token bucket uses the set's injectable clock so the
// battery can test rate exhaustion without sleeping.
type tenantState struct {
	t    Tenant
	tier int // admission tier index (0 = highest priority)

	mu         sync.Mutex
	inflight   int     // non-terminal jobs
	tokens     float64 // cells/sec bucket, may go negative (debt)
	lastRefill time.Time

	traceBytes int64 // cumulative accepted upload bytes

	// Counters for the per-tenant /metrics section.
	jobsSubmitted  uint64
	jobsDeduped    uint64
	jobsCompleted  uint64
	cellsCharged   uint64
	tracesUploaded uint64
	rejected       map[string]uint64 // by Reason*
}

// tenants is the server's tenant table: key → state, plus the tier
// lineup. Nil *tenants means the server runs open.
type tenants struct {
	byKey  map[string]*tenantState
	byName map[string]*tenantState
	tiers  []TierSpec // sorted by weight, descending
	now    func() time.Time
}

// newTenants builds the runtime table from a validated config.
// tierWeights, when non-nil, overrides the config's tier weights
// (the -tier-weights flag).
func newTenants(cfg TenantsConfig, tierWeights map[string]int, now func() time.Time) (*tenants, error) {
	if now == nil {
		now = time.Now
	}
	tiers := cfg.Tiers
	if len(tiers) == 0 {
		tiers = DefaultTiers()
	}
	tiers = append([]TierSpec(nil), tiers...)
	for name, w := range tierWeights {
		if w <= 0 {
			return nil, fmt.Errorf("tenants: tier %q: weight %d must be positive", name, w)
		}
		found := false
		for i := range tiers {
			if tiers[i].Name == name {
				tiers[i].Weight = w
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("tenants: -tier-weights names unknown tier %q", name)
		}
	}
	// Higher weight drains first; equal weights keep declaration order.
	sort.SliceStable(tiers, func(i, j int) bool { return tiers[i].Weight > tiers[j].Weight })

	tierIndex := make(map[string]int, len(tiers))
	for i, tr := range tiers {
		tierIndex[tr.Name] = i
	}
	ts := &tenants{
		byKey:  make(map[string]*tenantState, len(cfg.Tenants)),
		byName: make(map[string]*tenantState, len(cfg.Tenants)),
		tiers:  tiers,
		now:    now,
	}
	for _, t := range cfg.Tenants {
		tier := len(tiers) - 1 // empty tier → lowest priority
		if t.Tier != "" {
			tier = tierIndex[t.Tier]
		}
		st := &tenantState{
			t:          t,
			tier:       tier,
			tokens:     t.CellsPerSec, // one second of burst
			lastRefill: now(),
			rejected:   make(map[string]uint64),
		}
		ts.byKey[t.Key] = st
		ts.byName[t.Name] = st
	}
	return ts, nil
}

// lookup authenticates an API key.
func (ts *tenants) lookup(key string) (*tenantState, bool) {
	st, ok := ts.byKey[key]
	return st, ok
}

// tierCount reports how many admission tiers the table defines.
func (ts *tenants) tierCount() int { return len(ts.tiers) }

// admitJob checks the jobs-in-flight and cells/sec quotas and, when
// both pass, atomically charges them. cells is the job's cell count.
func (st *tenantState) admitJob(cells int, now time.Time) *quotaError {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.inflight >= st.t.MaxJobsInFlight {
		st.rejected[ReasonQuotaJobs]++
		return &quotaError{
			tenant: st.t.Name,
			reason: ReasonQuotaJobs,
			msg: fmt.Sprintf("tenant %q: jobs-in-flight quota exhausted (%d in flight, limit %d)",
				st.t.Name, st.inflight, st.t.MaxJobsInFlight),
		}
	}
	st.refillLocked(now)
	if st.tokens < 0 {
		st.rejected[ReasonQuotaCellRate]++
		return &quotaError{
			tenant: st.t.Name,
			reason: ReasonQuotaCellRate,
			msg: fmt.Sprintf("tenant %q: cells-per-second quota exhausted (limit %g cells/sec, %.0f cells of debt)",
				st.t.Name, st.t.CellsPerSec, -st.tokens),
		}
	}
	st.inflight++
	st.tokens -= float64(cells)
	st.cellsCharged += uint64(cells)
	st.jobsSubmitted++
	return nil
}

// refillLocked credits the token bucket for the time elapsed since
// the last refill, capped at one second of burst.
func (st *tenantState) refillLocked(now time.Time) {
	elapsed := now.Sub(st.lastRefill).Seconds()
	if elapsed > 0 {
		st.tokens += elapsed * st.t.CellsPerSec
		if st.tokens > st.t.CellsPerSec {
			st.tokens = st.t.CellsPerSec
		}
	}
	st.lastRefill = now
}

// retryAfter estimates how long until the bucket pays off its debt —
// the Retry-After hint on a cells/sec rejection.
func (st *tenantState) retryAfter(now time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.refillLocked(now)
	if st.tokens >= 0 {
		return 1
	}
	sec := int(-st.tokens/st.t.CellsPerSec) + 1
	if sec > 3600 {
		sec = 3600
	}
	return sec
}

// refundAdmission reverses admitJob for a submission the queue then
// rejected: the tenant neither holds the slot nor pays for cells that
// will never run.
func (st *tenantState) refundAdmission(cells int) {
	st.mu.Lock()
	st.inflight--
	st.tokens += float64(cells)
	st.cellsCharged -= uint64(cells)
	st.jobsSubmitted--
	st.mu.Unlock()
}

// jobDone releases one jobs-in-flight slot (the job reached a
// terminal state).
func (st *tenantState) jobDone() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	st.jobsCompleted++
	if st.inflight < 0 { // release/charge mismatch would corrupt the quota
		panic("server: tenant in-flight count went negative")
	}
}

// countDeduped records a submission answered by an existing job
// (free: no inflight slot, no cell tokens).
func (st *tenantState) countDeduped() {
	st.mu.Lock()
	st.jobsDeduped++
	st.mu.Unlock()
}

// admitTraceBytes checks the cumulative trace-bytes quota. The check
// is made before the upload streams; charge is called with the stored
// size after a successful, non-deduped ingest — so a tenant may
// overshoot by at most one upload body, never by an unbounded stream.
func (st *tenantState) admitTraceBytes() *quotaError {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.traceBytes >= st.t.MaxTraceBytes {
		st.rejected[ReasonQuotaTraceBytes]++
		return &quotaError{
			tenant: st.t.Name,
			reason: ReasonQuotaTraceBytes,
			msg: fmt.Sprintf("tenant %q: trace-bytes quota exhausted (%d bytes stored, limit %d)",
				st.t.Name, st.traceBytes, st.t.MaxTraceBytes),
		}
	}
	return nil
}

// chargeTraceBytes records n stored bytes against the quota.
func (st *tenantState) chargeTraceBytes(n int64) {
	st.mu.Lock()
	st.traceBytes += n
	st.tracesUploaded++
	st.mu.Unlock()
}

// countRejected records a non-quota rejection (quota paths count
// themselves under their specific reason).
func (st *tenantState) countRejected(reason string) {
	st.mu.Lock()
	st.rejected[reason]++
	st.mu.Unlock()
}

// metricsSnapshot is one tenant's counter snapshot for /metrics.
type tenantMetrics struct {
	Name           string
	Tier           string
	Inflight       int
	JobsSubmitted  uint64
	JobsDeduped    uint64
	JobsCompleted  uint64
	CellsCharged   uint64
	TracesUploaded uint64
	TraceBytes     int64
	Rejected       map[string]uint64
}

// snapshot collects every tenant's counters in name order.
func (ts *tenants) snapshot() []tenantMetrics {
	names := make([]string, 0, len(ts.byName))
	for n := range ts.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]tenantMetrics, 0, len(names))
	for _, n := range names {
		st := ts.byName[n]
		st.mu.Lock()
		m := tenantMetrics{
			Name:           st.t.Name,
			Tier:           ts.tiers[st.tier].Name,
			Inflight:       st.inflight,
			JobsSubmitted:  st.jobsSubmitted,
			JobsDeduped:    st.jobsDeduped,
			JobsCompleted:  st.jobsCompleted,
			CellsCharged:   st.cellsCharged,
			TracesUploaded: st.tracesUploaded,
			TraceBytes:     st.traceBytes,
			Rejected:       make(map[string]uint64, len(st.rejected)),
		}
		for r, v := range st.rejected {
			m.Rejected[r] = v
		}
		st.mu.Unlock()
		out = append(out, m)
	}
	return out
}
