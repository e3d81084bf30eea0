package server

import (
	"context"
	"encoding/json"
	"sort"
	"sync"

	"entangling/internal/harness"
)

// Job states. queued and running are transient; the other four are
// terminal. A degraded job finished with typed per-cell failures but
// carries every completed cell's metrics — partial results are a
// first-class outcome, not an error page.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateDegraded  = "degraded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// terminalState reports whether a job in state s has finished.
func terminalState(s string) bool {
	switch s {
	case StateCompleted, StateDegraded, StateFailed, StateCanceled:
		return true
	}
	return false
}

// rerunnable reports whether the job ended without a complete result
// (failed, degraded or canceled), so an identical submission runs it
// again instead of deduping onto it.
func (j *job) rerunnable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state) && j.state != StateCompleted
}

// CellCounts summarizes how a job's cells resolved.
type CellCounts struct {
	Total int `json:"total"`
	Done  int `json:"done"`
	// Result provenance (sums to Done - Failed).
	Simulated   int `json:"simulated"`
	CacheMemory int `json:"cache_memory"`
	CacheStore  int `json:"cache_store"`
	Shared      int `json:"shared"`
	Failed      int `json:"failed"`
}

// FailedCell is the typed record of one cell that produced no result.
type FailedCell struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Error    string `json:"error"`
	Canceled bool   `json:"canceled"`
}

// StatusDoc is the GET /v1/jobs/{id} body. Tenants lists the owners
// (submitter plus deduped joiners) on authenticated servers; it is
// absent in open mode so single-tenant deployments see the PR 4
// document unchanged.
type StatusDoc struct {
	ID      string     `json:"id"`
	State   string     `json:"state"`
	Cells   CellCounts `json:"cells"`
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`
	Tenants []string   `json:"tenants,omitempty"`
}

// ResultDoc is the GET /v1/jobs/{id}/result body: the counts, the
// typed failures, and the full metrics export with its fingerprint.
// MetricsSHA256 is harness.MetricsFingerprint of this sweep, so it is
// directly comparable with a local harness run of the same cells (for
// the pinned sweep, the value TestPinnedBenchFingerprint pins).
type ResultDoc struct {
	ID            string          `json:"id"`
	State         string          `json:"state"`
	Cells         CellCounts      `json:"cells"`
	FailedCells   []FailedCell    `json:"failed_cells,omitempty"`
	MetricsSHA256 string          `json:"metrics_sha256"`
	Metrics       json.RawMessage `json:"metrics"`
}

// job is one submitted sweep moving through the queue.
type job struct {
	spec *jobSpec
	log  *eventLog

	// ctx is canceled by DELETE /v1/jobs/{id} and by server drain;
	// cells abandon with typed canceled errors.
	ctx    context.Context
	cancel context.CancelFunc

	// payer is the tenant whose in-flight slot this job holds (nil in
	// open mode or for jobs admitted before tenancy was configured);
	// written once under the server's registration lock, released by
	// countTerminal.
	payer *tenantState

	mu     sync.Mutex
	state  string
	counts CellCounts
	// owners are the tenants allowed to read and cancel this job: the
	// submitter plus every tenant whose identical submission deduped
	// onto it. Empty in open mode.
	owners map[string]bool
	// result holds the rendered ResultDoc bytes once terminal.
	result []byte
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

func newJob(spec *jobSpec) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec:   spec,
		log:    newEventLog(),
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	j.counts.Total = spec.cellCount()
	j.log.append(Event{Type: EventJobQueued, Total: j.counts.Total})
	return j
}

// addOwner grants a tenant read/cancel access to this job.
func (j *job) addOwner(name string) {
	j.mu.Lock()
	if j.owners == nil {
		j.owners = make(map[string]bool, 1)
	}
	j.owners[name] = true
	j.mu.Unlock()
}

// isOwner reports whether the tenant may read or cancel this job.
func (j *job) isOwner(name string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.owners[name]
}

// dropOwner revokes one tenant's interest and reports how many owners
// remain — a shared (deduped) job is only canceled when its last
// owner lets go, so one tenant canceling cannot kill a sweep another
// tenant is still waiting on.
func (j *job) dropOwner(name string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.owners, name)
	return len(j.owners)
}

// ownerNames snapshots the owner set in sorted order.
func (j *job) ownerNames() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ownerNamesLocked(j.owners)
}

func ownerNamesLocked(owners map[string]bool) []string {
	if len(owners) == 0 {
		return nil
	}
	names := make([]string, 0, len(owners))
	for n := range owners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// start moves a queued job to running; it reports false when the job
// was already finalized (canceled while still in the queue).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.log.append(Event{Type: EventJobStarted, Total: j.counts.Total})
	return true
}

// finalize computes the terminal state, renders the result document
// from the job's sweep (nil for a job that never ran: an empty sweep),
// and closes the event log. Idempotent: only the first call decides
// (and reports true); racing calls are no-ops.
func (j *job) finalize(res *harness.SuiteResults) bool {
	if res == nil {
		res = &harness.SuiteResults{}
	}
	// SuiteResults.Failed is sorted, so a degraded job renders the
	// same bytes whatever order its cells failed in.
	var failed []FailedCell
	allCanceled := len(res.Failed) > 0
	for _, cerr := range res.Failed {
		failed = append(failed, FailedCell{
			Config: cerr.Config, Workload: cerr.Workload,
			Error: cerr.Error(), Canceled: cerr.Canceled(),
		})
		allCanceled = allCanceled && cerr.Canceled()
	}
	metrics, sha := harness.MetricsFingerprint(res.Metrics())

	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	state := StateCompleted
	switch {
	case j.ctx.Err() != nil && j.counts.Done < j.counts.Total:
		// Canceled with cells never attempted (queued jobs, drain).
		state = StateCanceled
	case j.counts.Failed == 0:
	case allCanceled:
		state = StateCanceled
	case j.counts.Failed == j.counts.Total:
		state = StateFailed
	default:
		state = StateDegraded
	}
	j.state = state

	doc := ResultDoc{
		ID:            j.spec.id,
		State:         state,
		Cells:         j.counts,
		FailedCells:   failed,
		MetricsSHA256: sha,
		Metrics:       json.RawMessage(metrics),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // assembled from marshalable parts
	}
	j.result = append(b, '\n')
	counts := j.counts
	j.mu.Unlock()

	j.log.append(Event{Type: EventJobDone, State: state, Done: counts.Done, Total: counts.Total})
	j.log.close()
	close(j.done)
	j.cancel()
	return true
}

// status snapshots the job for GET /v1/jobs/{id}.
func (j *job) status() StatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return StatusDoc{
		ID:      j.spec.id,
		State:   j.state,
		Cells:   j.counts,
		Warmup:  j.spec.warmup,
		Measure: j.spec.measure,
		Tenants: ownerNamesLocked(j.owners),
	}
}

// resultBytes returns the rendered result document and whether the
// job is terminal.
func (j *job) resultBytes() ([]byte, string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, terminalState(j.state)
}
