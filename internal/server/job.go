package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
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

// CellCounts summarizes how a job's cells resolved.
type CellCounts struct {
	Total int `json:"total"`
	Done  int `json:"done"`
	// Result provenance (sums to Done - Failed).
	Simulated   int `json:"simulated"`
	CacheMemory int `json:"cache_memory"`
	CacheStore  int `json:"cache_store"`
	Shared      int `json:"shared"`
	// Fleet and Stolen count cells resolved by fleet workers
	// (coordinator mode only); Stolen is the subset won by a
	// non-primary worker after a steal deadline or failover.
	Fleet  int `json:"fleet,omitempty"`
	Stolen int `json:"stolen,omitempty"`
	Failed int `json:"failed"`
}

// FailedCell is the typed record of one cell that produced no result.
type FailedCell struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Attempts int    `json:"attempts"`
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
// MetricsSHA256 hashes exactly the bytes harness.WriteMetricsJSON
// produces for this sweep, so it is directly comparable with the
// metrics_sha256 of a BENCH_*.json point measured on the same cells.
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

	mu      sync.Mutex
	state   string
	counts  CellCounts
	results map[string]map[string]harness.RunResult
	failed  []FailedCell
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
		spec:    spec,
		log:     newEventLog(),
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		results: make(map[string]map[string]harness.RunResult, len(spec.cfgs)),
		done:    make(chan struct{}),
	}
	j.counts.Total = spec.cellCount()
	for _, c := range spec.cfgs {
		j.results[c.Name] = make(map[string]harness.RunResult, len(spec.specs))
	}
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

// recordResult stores one completed cell and emits its event.
func (j *job) recordResult(r harness.RunResult, source string, elapsedMS int64) {
	j.mu.Lock()
	j.results[r.Config][r.Workload] = r
	j.counts.Done++
	switch source {
	case SourceSimulated:
		j.counts.Simulated++
	case SourceCacheMemory:
		j.counts.CacheMemory++
	case SourceCacheStore:
		j.counts.CacheStore++
	case SourceShared:
		j.counts.Shared++
	case SourceFleet:
		j.counts.Fleet++
	case SourceFleetStolen:
		j.counts.Fleet++
		j.counts.Stolen++
	}
	done, total := j.counts.Done, j.counts.Total
	j.mu.Unlock()
	j.log.append(Event{
		Type: EventCellFinished, Config: r.Config, Workload: r.Workload,
		Source: source, ElapsedMS: elapsedMS, Done: done, Total: total,
	})
}

// recordFailure stores one failed cell and emits its event.
func (j *job) recordFailure(cerr *harness.CellError, elapsedMS int64) {
	fc := FailedCell{
		Config:   cerr.Config,
		Workload: cerr.Workload,
		Attempts: cerr.Attempts,
		Error:    cerr.Error(),
		Canceled: cerr.Canceled(),
	}
	j.mu.Lock()
	j.failed = append(j.failed, fc)
	j.counts.Done++
	j.counts.Failed++
	done, total := j.counts.Done, j.counts.Total
	j.mu.Unlock()
	j.log.append(Event{
		Type: EventCellFailed, Config: fc.Config, Workload: fc.Workload,
		Attempt: fc.Attempts, Error: fc.Error, ElapsedMS: elapsedMS,
		Done: done, Total: total,
	})
}

// finalize computes the terminal state, renders the result document,
// and closes the event log. Idempotent: only the first call decides
// (and reports true); racing calls are no-ops.
func (j *job) finalize() bool {
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
	case j.allFailuresCanceled():
		state = StateCanceled
	case j.counts.Failed == j.counts.Total:
		state = StateFailed
	default:
		state = StateDegraded
	}
	j.state = state

	metrics := j.metricsBytesLocked()
	sum := sha256.Sum256(metrics)
	doc := ResultDoc{
		ID:            j.spec.id,
		State:         state,
		Cells:         j.counts,
		FailedCells:   j.failed,
		MetricsSHA256: hex.EncodeToString(sum[:]),
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

func (j *job) allFailuresCanceled() bool {
	for _, f := range j.failed {
		if !f.Canceled {
			return false
		}
	}
	return len(j.failed) > 0
}

// metricsBytesLocked renders the completed cells exactly as
// harness.WriteMetricsJSON serializes a locally-run sweep of the same
// cells: same SuiteResults assembly, same deterministic ordering, so
// the bytes (and their SHA-256) are comparable across transports.
func (j *job) metricsBytesLocked() []byte {
	s := &harness.SuiteResults{Runs: j.results}
	for _, c := range j.spec.cfgs {
		s.ConfigOrder = append(s.ConfigOrder, c.Name)
	}
	for _, w := range j.spec.specs {
		s.WorkloadOrder = append(s.WorkloadOrder, w.Name)
	}
	var sb strings.Builder
	if err := harness.WriteMetricsJSON(&sb, s.Metrics()); err != nil {
		panic(err) // in-memory marshal of a plain struct cannot fail
	}
	return []byte(sb.String())
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
