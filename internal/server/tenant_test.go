package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"entangling/internal/faultinject"
)

// This file is the multi-tenant battery: API-key auth, the three
// quotas (jobs in flight, cells/sec, trace bytes), tier-ordered
// admission draining, cross-tenant isolation (no starvation, no
// foreign reads, shared-job cancel semantics) and the per-tenant
// metrics section. Every test runs under startTestServer's leakcheck,
// so -race plus goroutine-baseline assertions hold for the whole
// battery.

const (
	goldKey   = "gold-key-000001"
	bronzeKey = "bronze-key-0001"
)

// tenantFixture is the two-tenant config the battery runs on: a gold
// tenant and a bronze tenant.
func tenantFixture() *TenantsConfig {
	return &TenantsConfig{
		SchemaVersion: TenantsConfigSchemaVersion,
		Tenants: []Tenant{
			{Name: "acme", Key: goldKey, Tier: "gold",
				MaxJobsInFlight: 8, CellsPerSec: 1e9, MaxTraceBytes: 1 << 30},
			{Name: "zeta", Key: bronzeKey, Tier: "bronze",
				MaxJobsInFlight: 8, CellsPerSec: 1e9, MaxTraceBytes: 1 << 30},
		},
	}
}

// tenantTestConfig is testConfig with the fixture tenants loaded.
func tenantTestConfig() Config {
	cfg := testConfig()
	cfg.Tenants = tenantFixture()
	return cfg
}

// doAs performs one API call, authenticated unless key is empty, and
// returns status + body.
func doAs(t *testing.T, ts *httptest.Server, key, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("building %s %s: %v", method, path, err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s response: %v", method, path, err)
	}
	return resp.StatusCode, b
}

// errDocOf decodes an error body's message and machine reason.
func errDocOf(t *testing.T, body []byte) (msg, reason string) {
	t.Helper()
	var doc struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	return doc.Error, doc.Reason
}

// reasonOf decodes the machine-readable reason of an error body.
func reasonOf(t *testing.T, body []byte) string {
	t.Helper()
	_, reason := errDocOf(t, body)
	return reason
}

// submitAs submits a job as the given tenant (anonymously when key is
// empty), requiring admission.
func submitAs(t *testing.T, ts *httptest.Server, key string, req JobRequest) submitResponse {
	t.Helper()
	b, _ := json.Marshal(req)
	status, body := doAs(t, ts, key, "POST", "/v1/jobs", b)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit as %q: status %d, body %s", key, status, body)
	}
	var sr submitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding submit response: %v (%s)", err, body)
	}
	return sr
}

// waitStatusAs polls GET /v1/jobs/{id} as key until pred holds.
func waitStatusAs(t *testing.T, ts *httptest.Server, key, id string, pred func(StatusDoc) bool) StatusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := doAs(t, ts, key, "GET", "/v1/jobs/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("GET status as %q: %d (%s)", key, status, body)
		}
		var doc StatusDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if pred(doc) {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the expected status (last: %+v)", id, doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smallJob returns a fast one-cell job; the warmup offset
// distinguishes job identities across calls.
func smallJob(warmupOffset uint64) JobRequest {
	return JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup + warmupOffset,
		Measure:        testMeasure,
	}
}

// heavyJob returns a one-cell job slow enough (hundreds of
// milliseconds) that tests can observe it mid-flight.
func heavyJob(warmupOffset uint64) JobRequest {
	return JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup + warmupOffset,
		Measure:        1_500_000,
	}
}

// TestTenantAuthTaxonomy: a multi-tenant server answers 401 with the
// unauthorized reason for missing and unknown keys, on the job API
// and the trace API alike; a configured key is admitted.
func TestTenantAuthTaxonomy(t *testing.T) {
	_, ts := startTestServer(t, tenantTestConfig())

	b, _ := json.Marshal(smallJob(0))
	for _, tc := range []struct {
		name, key, method, path string
		body                    []byte
	}{
		{"submit no key", "", "POST", "/v1/jobs", b},
		{"submit bad key", "who-is-this-123", "POST", "/v1/jobs", b},
		{"trace list no key", "", "GET", "/v1/traces", nil},
		{"status no key", "", "GET", "/v1/jobs/doesnotexist", nil},
		{"events bad key", "nope-nope-nope", "GET", "/v1/jobs/x/events", nil},
	} {
		status, body := doAs(t, ts, tc.key, tc.method, tc.path, tc.body)
		if status != http.StatusUnauthorized {
			t.Fatalf("%s: status %d, want 401 (%s)", tc.name, status, body)
		}
		if r := reasonOf(t, body); r != ReasonUnauthorized {
			t.Fatalf("%s: reason %q, want %q", tc.name, r, ReasonUnauthorized)
		}
	}

	// X-API-Key works as an alternative to the Bearer header.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set("X-API-Key", goldKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST with X-API-Key: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("X-API-Key submit: status %d, want 202", resp.StatusCode)
	}
}

// TestQuotaJobsInFlight: the in-flight quota rejects the (limit+1)th
// concurrent job with a 429 naming the tenant and the limit, and the
// slot frees once a job reaches a terminal state.
func TestQuotaJobsInFlight(t *testing.T) {
	cfg := tenantTestConfig()
	cfg.Tenants.Tenants[0].MaxJobsInFlight = 1
	_, ts := startTestServer(t, cfg)

	first := submitAs(t, ts, goldKey, heavyJob(0))
	b, _ := json.Marshal(heavyJob(1))
	status, body := doAs(t, ts, goldKey, "POST", "/v1/jobs", b)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429 (%s)", status, body)
	}
	msg, reason := errDocOf(t, body)
	if reason != ReasonQuotaJobs {
		t.Fatalf("over-quota reason %q, want %q", reason, ReasonQuotaJobs)
	}
	if !strings.Contains(msg, `"acme"`) || !strings.Contains(msg, "limit 1") {
		t.Fatalf("quota rejection must name the tenant and its limit, got %s", msg)
	}

	// The rejected submission must not have registered a job: the
	// identical resubmission below is fresh, not a dedupe hit on a
	// zombie.
	waitStatusAs(t, ts, goldKey, first.ID, func(d StatusDoc) bool { return terminalState(d.State) })
	second := submitAs(t, ts, goldKey, heavyJob(1))
	if second.Deduped {
		t.Fatalf("post-release submit was deduped onto a rejected registration")
	}
	waitStatusAs(t, ts, goldKey, second.ID, func(d StatusDoc) bool { return terminalState(d.State) })
}

// TestQuotaCellRate: the cells/sec token bucket admits into debt,
// rejects while in debt with Retry-After, and refills with the
// (injected) clock — no sleeping, fully deterministic.
func TestQuotaCellRate(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	cfg := tenantTestConfig()
	cfg.Tenants.Tenants[0].CellsPerSec = 2 // burst of 2 tokens
	cfg.clock = clock
	_, ts := startTestServer(t, cfg)

	two := JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}
	// 2 tokens - 2 cells = 0: admitted, bucket empty.
	submitAs(t, ts, goldKey, two)
	// 0 tokens is not yet debt: admitted, bucket at -1.
	submitAs(t, ts, goldKey, smallJob(1))

	b, _ := json.Marshal(smallJob(2))
	status, body := doAs(t, ts, goldKey, "POST", "/v1/jobs", b)
	if status != http.StatusTooManyRequests {
		t.Fatalf("in-debt submit: status %d, want 429 (%s)", status, body)
	}
	if r := reasonOf(t, body); r != ReasonQuotaCellRate {
		t.Fatalf("in-debt reason %q, want %q", r, ReasonQuotaCellRate)
	}
	if !strings.Contains(string(body), "limit 2 cells/sec") {
		t.Fatalf("cell-rate rejection must name the limit, got %s", body)
	}

	// The frozen clock holds the bucket in debt no matter how fast the
	// test machine is; advancing it refills the burst.
	advance(10 * time.Second)
	submitAs(t, ts, goldKey, smallJob(2))
}

// TestQuotaTraceBytes: cumulative stored trace bytes are capped; the
// rejection names the tenant limit.
func TestQuotaTraceBytes(t *testing.T) {
	cfg := tenantTestConfig()
	cfg.TraceDir = t.TempDir()
	cfg.Tenants.Tenants[0].MaxTraceBytes = 64 // smaller than any real payload
	_, ts := startTestServer(t, cfg)

	payload := encodeWalkerTrace(t, 2_000)
	status, body := doAs(t, ts, goldKey, "POST", "/v1/traces", payload)
	if status != http.StatusCreated {
		t.Fatalf("first upload: status %d (%s)", status, body)
	}

	// The first accepted upload overshot the 64-byte cap (pre-check
	// passes at zero usage, charge lands after); everything further is
	// rejected.
	other := encodeWalkerTrace(t, 2_500)
	status, body = doAs(t, ts, goldKey, "POST", "/v1/traces", other)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload: status %d, want 429 (%s)", status, body)
	}
	if r := reasonOf(t, body); r != ReasonQuotaTraceBytes {
		t.Fatalf("over-quota reason %q, want %q", r, ReasonQuotaTraceBytes)
	}
	if !strings.Contains(string(body), "limit 64") {
		t.Fatalf("trace-bytes rejection must name the limit, got %s", body)
	}

	// The other tenant's quota is untouched.
	status, body = doAs(t, ts, bronzeKey, "POST", "/v1/traces", other)
	if status != http.StatusCreated {
		t.Fatalf("bronze upload after acme exhaustion: status %d (%s)", status, body)
	}
}

// TestTierQueueDrainOrder pins the queue's contract directly: strict
// highest-tier-first, FIFO within a tier, capacity shared across
// tiers, and post-close draining.
func TestTierQueueDrainOrder(t *testing.T) {
	q := newTierQueue(5)
	mk := func() *job { return &job{} }
	b1, g1, s1, g2, b2 := mk(), mk(), mk(), mk(), mk()
	for _, p := range []struct {
		j    *job
		tier int
	}{{b1, 2}, {g1, 0}, {s1, 1}, {g2, 0}, {b2, 2}} {
		if !q.push(p.j, p.tier) {
			t.Fatalf("push rejected below capacity")
		}
	}
	if q.push(mk(), 0) {
		t.Fatalf("push above capacity succeeded")
	}
	q.close()
	if q.push(mk(), 0) {
		t.Fatalf("push after close succeeded")
	}
	want := []*job{g1, g2, s1, b1, b2}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if j != w {
			t.Fatalf("pop %d: wrong job (tier order violated)", i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatalf("pop past drain returned a job")
	}
}

// TestTierPriorityUnderLoad: with one worker busy, a gold job
// submitted after a bronze job still runs first — and an admitted
// tenant's job is never starved by another tenant's backlog.
func TestTierPriorityUnderLoad(t *testing.T) {
	cfg := tenantTestConfig()
	cfg.Workers = 1
	cfg.QueueCapacity = 8
	_, ts := startTestServer(t, cfg)

	// Occupy the single worker, then queue bronze before gold.
	blocker := submitAs(t, ts, bronzeKey, heavyJob(100))
	waitStatusAs(t, ts, bronzeKey, blocker.ID, func(d StatusDoc) bool { return d.State == StateRunning })
	bronzeJob := submitAs(t, ts, bronzeKey, heavyJob(101))
	goldJob := submitAs(t, ts, goldKey, heavyJob(102))

	// The gold job reaches a terminal state while the earlier-queued
	// bronze job has not yet finished: the tiers reordered them.
	waitStatusAs(t, ts, goldKey, goldJob.ID, func(d StatusDoc) bool { return terminalState(d.State) })
	doc := waitStatusAs(t, ts, bronzeKey, bronzeJob.ID, func(StatusDoc) bool { return true })
	if terminalState(doc.State) {
		t.Fatalf("bronze job finished before the later gold job: tier order not enforced")
	}
	// The backlog still drains — bronze is delayed, not starved.
	waitStatusAs(t, ts, bronzeKey, bronzeJob.ID, func(d StatusDoc) bool { return terminalState(d.State) })
}

// TestDedupAcrossTenantsIsFreeAndShared: an identical submission from
// a second tenant dedupes onto the live job without charging the
// joiner's quotas, grants co-ownership (status, events, result), and
// keeps the job alive until the last owner cancels.
func TestDedupAcrossTenantsIsFreeAndShared(t *testing.T) {
	cfg := tenantTestConfig()
	s, ts := startTestServer(t, cfg)

	req := heavyJob(200)
	first := submitAs(t, ts, goldKey, req)
	second := submitAs(t, ts, bronzeKey, req)
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("identical submission did not dedupe (first %s, second %+v)", first.ID, second)
	}

	// The joiner paid nothing: no in-flight slot, no cell tokens.
	zeta := s.tenants.byName["zeta"]
	zeta.mu.Lock()
	inflight, charged, deduped := zeta.inflight, zeta.cellsCharged, zeta.jobsDeduped
	zeta.mu.Unlock()
	if inflight != 0 || charged != 0 {
		t.Fatalf("deduped join charged the joiner: inflight %d, cells %d", inflight, charged)
	}
	if deduped != 1 {
		t.Fatalf("joiner's dedupe counter = %d, want 1", deduped)
	}

	// Both owners are listed; both may read.
	doc := waitStatusAs(t, ts, bronzeKey, first.ID, func(StatusDoc) bool { return true })
	if len(doc.Tenants) != 2 || doc.Tenants[0] != "acme" || doc.Tenants[1] != "zeta" {
		t.Fatalf("status owners = %v, want [acme zeta]", doc.Tenants)
	}

	// One owner canceling withdraws their interest but does not kill
	// the shared job — and the canceler loses read access.
	status, body := doAs(t, ts, goldKey, "DELETE", "/v1/jobs/"+first.ID, nil)
	if status != http.StatusOK {
		t.Fatalf("first cancel: status %d (%s)", status, body)
	}
	doc = waitStatusAs(t, ts, bronzeKey, first.ID, func(StatusDoc) bool { return true })
	if doc.State == StateCanceled {
		t.Fatalf("first owner's cancel killed a job the second owner still wants")
	}
	if status, _ := doAs(t, ts, goldKey, "GET", "/v1/jobs/"+first.ID, nil); status != http.StatusForbidden {
		t.Fatalf("canceled-out owner can still read the job: status %d", status)
	}

	// The last owner's cancel truly cancels (unless the job already
	// finished, a legitimate end state for this race). The canceler no
	// longer owns the job, so the terminal state is observed in-process.
	status, body = doAs(t, ts, bronzeKey, "DELETE", "/v1/jobs/"+first.ID, nil)
	if status != http.StatusOK {
		t.Fatalf("second cancel: status %d (%s)", status, body)
	}
	j, ok := s.lookup(first.ID)
	if !ok {
		t.Fatalf("job %s vanished after cancel", first.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !terminalState(j.status().State) {
		if time.Now().After(deadline) {
			t.Fatalf("job never reached a terminal state after last-owner cancel (state %q)", j.status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := j.status().State; st != StateCanceled && st != StateCompleted {
		t.Fatalf("after last-owner cancel: state %q", st)
	}
}

// TestForeignJobForbidden: a tenant that neither submitted nor joined
// a job gets 403 with the forbidden reason on every read and on
// cancel — and the cancel must not disturb the job.
func TestForeignJobForbidden(t *testing.T) {
	_, ts := startTestServer(t, tenantTestConfig())

	sub := submitAs(t, ts, goldKey, heavyJob(300))
	for _, path := range []string{
		"/v1/jobs/" + sub.ID,
		"/v1/jobs/" + sub.ID + "/result",
		"/v1/jobs/" + sub.ID + "/events",
	} {
		status, body := doAs(t, ts, bronzeKey, "GET", path, nil)
		if status != http.StatusForbidden {
			t.Fatalf("GET %s as non-owner: status %d, want 403 (%s)", path, status, body)
		}
		if r := reasonOf(t, body); r != ReasonForbidden {
			t.Fatalf("GET %s reason %q, want %q", path, r, ReasonForbidden)
		}
	}
	status, body := doAs(t, ts, bronzeKey, "DELETE", "/v1/jobs/"+sub.ID, nil)
	if status != http.StatusForbidden {
		t.Fatalf("foreign cancel: status %d, want 403 (%s)", status, body)
	}
	doc := waitStatusAs(t, ts, goldKey, sub.ID, func(d StatusDoc) bool { return terminalState(d.State) })
	if doc.State == StateCanceled {
		t.Fatalf("foreign cancel canceled the job")
	}
}

// TestPerTenantMetrics: the /metrics exposition carries per-tenant
// labeled series, including the rejection taxonomy.
func TestPerTenantMetrics(t *testing.T) {
	cfg := tenantTestConfig()
	cfg.Tenants.Tenants[0].MaxJobsInFlight = 1
	_, ts := startTestServer(t, cfg)

	first := submitAs(t, ts, goldKey, heavyJob(500))
	b, _ := json.Marshal(heavyJob(501))
	if status, _ := doAs(t, ts, goldKey, "POST", "/v1/jobs", b); status != http.StatusTooManyRequests {
		t.Fatalf("expected a quota rejection to count, got status %d", status)
	}
	waitStatusAs(t, ts, goldKey, first.ID, func(d StatusDoc) bool { return terminalState(d.State) })

	_, body := doAs(t, ts, "", "GET", "/metrics", nil)
	text := string(body)
	for _, want := range []string{
		`entangling_tenant_jobs_submitted_total{tenant="acme"} 1`,
		`entangling_tenant_jobs_in_flight{tenant="acme",tier="gold"} 0`,
		`entangling_tenant_jobs_in_flight{tenant="zeta",tier="bronze"} 0`,
		fmt.Sprintf(`entangling_tenant_rejected_total{tenant="acme",reason=%q} 1`, ReasonQuotaJobs),
		"entangling_quota_rejected_total 1",
		"entangling_auth_failures_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q\n%s", want, text)
		}
	}
}

// TestTenantRejectionCounters walks every rejection a tenant can hit
// and checks that each moves exactly one per-tenant counter, by 1,
// under the reason its response body names. Rows run in order against
// one server; setup steps build the state a row needs.
func TestTenantRejectionCounters(t *testing.T) {
	const soloKey, rateKey = "solo-key-000001", "rate-key-000001"
	frozen := time.Unix(1_700_000_000, 0)
	cfg := tenantTestConfig()
	cfg.QueueCapacity = 1
	cfg.MaxBodyBytes, cfg.MaxTraceBytes = 4<<10, 4<<10
	cfg.TraceDir = filepath.Join(t.TempDir(), "traces")
	cfg.clock = func() time.Time { return frozen } // rate's bucket never refills
	cfg.Tenants.Tenants[1].MaxTraceBytes = 1       // zeta: one upload, then over quota
	cfg.Tenants.Tenants = append(cfg.Tenants.Tenants,
		Tenant{Name: "solo", Key: soloKey, MaxJobsInFlight: 1, CellsPerSec: 1e9, MaxTraceBytes: 1 << 30},
		Tenant{Name: "rate", Key: rateKey, MaxJobsInFlight: 8, CellsPerSec: 1, MaxTraceBytes: 1 << 30})
	// slow's srv-00 cell stalls; every other row runs clean workloads.
	s, ts := startHookedTestServer(t, cfg,
		faultHook(faultinject.Plan{Seed: 1, CellSlowProb: 1, SlowDelay: 800 * time.Millisecond}, "srv-00"))
	owner := map[string]*tenantState{}
	for _, st := range s.tenants.byName {
		owner[st.t.Key] = st
	}

	slow := JobRequest{Configurations: []string{"no"}, Workloads: []string{"srv-00"}, Warmup: testWarmup, Measure: testMeasure}
	body := func(req JobRequest) []byte { b, _ := json.Marshal(req); return b }
	trace := encodeWalkerTrace(t, 300)
	var acmeJob string

	for _, row := range []struct {
		name   string
		setup  func()
		key    string
		call   string // "METHOD path"
		body   []byte
		status int
		reason string
	}{
		{"malformed job body", nil, goldKey, "POST /v1/jobs", []byte(`{"configurations":`), 400, ReasonBadRequest},
		{"oversized job body", nil, goldKey, "POST /v1/jobs", []byte(`{"configurations":["` + strings.Repeat("a", 8<<10) + `"]}`), 413, ReasonTooLarge},
		{"unresolvable job", nil, goldKey, "POST /v1/jobs", body(JobRequest{Configurations: []string{"nope"}, Workloads: []string{"int-00"}, Measure: 1}), 400, ReasonBadRequest},
		{"unknown job", nil, goldKey, "GET /v1/jobs/0000000000000000", nil, 404, ReasonNotFound},
		{"unknown job cancel", nil, goldKey, "DELETE /v1/jobs/0000000000000000", nil, 404, ReasonNotFound},
		{"foreign job", func() {
			acmeJob = submitAs(t, ts, goldKey, smallJob(900)).ID
			waitStatusAs(t, ts, goldKey, acmeJob, func(d StatusDoc) bool { return terminalState(d.State) })
		}, bronzeKey, "GET /v1/jobs/{acme}/result", nil, 403, ReasonForbidden},
		{"cell rate in debt", func() { // one token of burst, two cells charged
			submitAs(t, ts, rateKey, JobRequest{Configurations: []string{"no", "nextline"}, Workloads: []string{"int-00"}, Warmup: testWarmup, Measure: testMeasure})
		}, rateKey, "POST /v1/jobs", body(smallJob(901)), 429, ReasonQuotaCellRate},
		{"unknown trace format", nil, goldKey, "POST /v1/traces?format=elf", []byte("x"), 400, ReasonBadRequest},
		{"malformed trace", nil, goldKey, "POST /v1/traces", []byte("definitely not a trace"), 400, ReasonBadRequest},
		{"oversized trace", nil, goldKey, "POST /v1/traces", encodeWalkerTrace(t, 50_000), 413, ReasonTooLarge},
		{"trace bytes quota", func() {
			if status, b := doAs(t, ts, bronzeKey, "POST", "/v1/traces", trace); status != http.StatusCreated {
				t.Fatalf("zeta's first upload: status %d (%s)", status, b)
			}
		}, bronzeKey, "POST /v1/traces", trace, 429, ReasonQuotaTraceBytes},
		{"unknown trace", nil, goldKey, "GET /v1/traces/0000", nil, 404, ReasonNotFound},
		{"jobs in flight quota", func() { // solo's slow job takes the only worker
			id := submitAs(t, ts, soloKey, slow).ID
			waitStatusAs(t, ts, soloKey, id, func(d StatusDoc) bool { return d.State != StateQueued })
		}, soloKey, "POST /v1/jobs", body(smallJob(902)), 429, ReasonQuotaJobs},
		{"queue full", func() { submitAs(t, ts, goldKey, smallJob(903)) }, goldKey, "POST /v1/jobs", body(smallJob(904)), 429, ReasonQueueFull},
		{"submit while draining", func() {
			go s.Drain()
			for !s.Draining() {
				time.Sleep(time.Millisecond)
			}
		}, goldKey, "POST /v1/jobs", body(smallJob(905)), 503, ReasonDraining},
		{"trace upload while draining", nil, goldKey, "POST /v1/traces", trace, 503, ReasonDraining},
	} {
		if row.setup != nil {
			row.setup()
		}
		st := owner[row.key]
		counts := func() map[string]uint64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			return maps.Clone(st.rejected)
		}
		before := counts()
		method, path, _ := strings.Cut(strings.Replace(row.call, "{acme}", acmeJob, 1), " ")
		status, b := doAs(t, ts, row.key, method, path, row.body)
		if r := reasonOf(t, b); status != row.status || r != row.reason {
			t.Fatalf("%s: status %d reason %q, want %d %q (%s)", row.name, status, r, row.status, row.reason, b)
		}
		moved := map[string]uint64{}
		for r, v := range counts() {
			if v != before[r] {
				moved[r] = v - before[r]
			}
		}
		if want := map[string]uint64{row.reason: 1}; !reflect.DeepEqual(moved, want) {
			t.Fatalf("%s: rejection counters moved %v, want %v", row.name, moved, want)
		}
	}
}

// TestOpenModeUnchanged: without a tenants config the server stays
// open — no auth headers needed, no Tenants field in status docs (the
// PR 4 document shape, byte-compatible).
func TestOpenModeUnchanged(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	sr := submitOK(t, ts, smallJob(600))
	doc := waitStatus(t, ts, sr.ID, func(d StatusDoc) bool { return terminalState(d.State) })
	if doc.Tenants != nil {
		t.Fatalf("open-mode status doc grew a tenants field: %v", doc.Tenants)
	}
	raw, _ := json.Marshal(doc)
	if strings.Contains(string(raw), "tenants") {
		t.Fatalf("open-mode status JSON mentions tenants: %s", raw)
	}
}
