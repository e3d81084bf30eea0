// Package server turns the batch evaluation harness into a long-lived
// simulation service: an HTTP/JSON API that accepts {configurations x
// workloads x windows} sweep jobs, runs each job on a bounded worker
// pool as one RunSuite of a harness.Resolver shared by every job, and
// streams per-cell progress over SSE. The resolver answers repeat
// work from its content-addressed tiers (in-process + the durable
// checkpoint store) with singleflight deduplication — identical cells
// submitted by any number of concurrent clients simulate exactly
// once. Admission is bounded (429 + Retry-After when the queue is
// full) and shutdown is a graceful drain: stop admitting, let
// in-flight cells finish and checkpoint, then exit cleanly.
package server

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"entangling/internal/harness"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

// Config assembles a Server. Zero fields take the documented
// defaults.
type Config struct {
	// Addr is the listen address for Run (e.g. ":8080", "127.0.0.1:0").
	Addr string

	// QueueCapacity bounds the jobs admitted but not yet running;
	// submissions beyond it are rejected with 429 (default 16).
	QueueCapacity int
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// CellParallelism bounds concurrently resolving cells within one
	// job (default 4).
	CellParallelism int
	// MaxCells caps a single job's sweep size (default 512 cells).
	MaxCells int
	// MaxBodyBytes caps the submission body (default 1 MiB).
	MaxBodyBytes int64
	// MaxJobs caps remembered jobs; the oldest terminal jobs are
	// forgotten past it (default 256).
	MaxJobs int

	// PerCategory sizes the CVP workload registry (default 6, the
	// paperfigs default, so every curated workload name resolves).
	PerCategory int
	// Budget bounds per-workload resource use; zero value means
	// workload.DefaultBudget.
	Budget workload.Budget

	// CheckpointDir, when set, persists every simulated cell and
	// serves warm restarts; empty disables durability.
	CheckpointDir string

	// TraceDir, when set, stores uploaded traces (content-addressed,
	// next to the checkpoints); empty defaults to CheckpointDir/traces
	// when CheckpointDir is set, else trace upload is disabled (POST
	// /v1/traces answers 503).
	TraceDir string
	// MaxTraceBytes caps one trace upload body (default 128 MiB).
	MaxTraceBytes int64

	// DrainGrace is how long Drain waits for running jobs before
	// canceling them (default 10s).
	DrainGrace time.Duration

	// Tenants, when set, switches the server to authenticated
	// multi-tenant mode: every /v1 request must present a configured
	// API key, quotas are enforced, and the admission queue drains by
	// priority tier. Nil runs the server open (single-tenant, no
	// auth) — the pre-tenancy behavior.
	Tenants *TenantsConfig

	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// clock overrides time.Now for quota bookkeeping (tests).
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CellParallelism <= 0 {
		c.CellParallelism = 4
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.PerCategory <= 0 {
		c.PerCategory = 6
	}
	if (c.Budget == workload.Budget{}) {
		c.Budget = workload.DefaultBudget()
	}
	if c.TraceDir == "" && c.CheckpointDir != "" {
		c.TraceDir = filepath.Join(c.CheckpointDir, "traces")
	}
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = 128 << 20
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// counters is the server's Prometheus-exported counter set. All
// fields are read with atomic loads by the /metrics handler.
type counters struct {
	jobsSubmitted uint64
	jobsDeduped   uint64
	jobsRejected  uint64 // queue-full 429s
	jobsCompleted uint64
	jobsDegraded  uint64
	jobsFailed    uint64
	jobsCanceled  uint64

	cellsSimulated   uint64
	cellsCacheMemory uint64
	cellsCacheStore  uint64
	cellsShared      uint64
	cellsFailed      uint64

	tracesUploaded uint64
	tracesDeduped  uint64
	tracesRejected uint64

	authFailures  uint64 // 401s: missing or unknown API key
	authForbidden uint64 // 403s: known tenant, disallowed action
	quotaRejected uint64 // 429s from any tenant quota
}

func (c *counters) inc(f *uint64) { atomic.AddUint64(f, 1) }

// Server is the simulation job service. Create with New, serve its
// Handler (or call Run), and stop with Drain.
type Server struct {
	cfg      Config
	reg      *registries
	traces   *workload.TraceCache
	tstore   *trace.Store // uploaded traces; nil when TraceDir unset
	resolver *harness.Resolver
	stats    counters

	// tenants is the auth/quota table; nil means the server runs
	// open (no auth, every job on tier 0, no quotas).
	tenants *tenants

	queue *tierQueue
	// draining is closed when admission stops; drained is closed when
	// the last worker exits.
	draining chan struct{}
	drained  chan struct{}
	drainOne sync.Once
	workers  sync.WaitGroup

	// addr holds the bound listen address once Run is listening.
	addr atomic.Value

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	running  int
}

// New builds a Server (opening the checkpoint store when configured)
// without starting its workers; call Start, or let Run do it.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, nil)
}

// newServer is New with hook as the CellHook of every cell the server
// simulates (fault injection in tests: no job request can carry one).
func newServer(cfg Config, hook func(config, workload string) error) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      newRegistries(cfg.PerCategory),
		traces:   workload.NewTraceCache(),
		draining: make(chan struct{}),
		drained:  make(chan struct{}),
		jobs:     make(map[string]*job),
	}
	if cfg.Tenants != nil {
		if err := cfg.Tenants.Validate(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.tenants = newTenants(*cfg.Tenants, cfg.clock)
	}
	s.queue = newTierQueue(cfg.QueueCapacity)
	if cfg.TraceDir != "" {
		tstore, err := trace.OpenStore(cfg.TraceDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.tstore = tstore
	}
	var store *harness.CheckpointStore
	if cfg.CheckpointDir != "" {
		var err error
		if store, err = harness.OpenCheckpointStore(cfg.CheckpointDir); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s.resolver = harness.NewResolver(harness.Options{
		Traces: s.traces, Checkpoint: store, Resume: true, CellHook: hook,
	})
	return s, nil
}

// Start launches the worker pool. Safe to call once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	go func() {
		s.workers.Wait()
		close(s.drained)
	}()
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return // queue closed and fully drained
		}
		if s.Draining() {
			// Drain: jobs still queued are finalized as canceled
			// rather than silently forgotten.
			j.cancel()
			if j.finalize(nil) {
				s.countTerminal(j)
			}
			continue
		}
		s.setRunning(+1)
		s.runJob(j)
		s.setRunning(-1)
	}
}

func (s *Server) setRunning(d int) {
	s.mu.Lock()
	s.running += d
	s.mu.Unlock()
}

// runJob resolves the job's cells as one Resolver.RunSuite, which
// holds the trace-lifetime rule (one reserved trace use per cell,
// released as the cell resolves) and the cell order. Its error only
// restates SuiteResults.Failed, which finalize renders.
func (s *Server) runJob(j *job) {
	if !j.start() {
		// Canceled while queued; already finalized by the cancel path.
		return
	}
	res, _ := s.resolver.RunSuite(j.ctx, j.spec.specs, j.spec.cfgs, harness.Options{
		Warmup: j.spec.warmup, Measure: j.spec.measure,
		Parallelism: s.cfg.CellParallelism, Progress: s.observe(j),
	})
	if j.finalize(res) {
		s.countTerminal(j)
	}
	doc := j.status()
	s.cfg.Logf("server: job %s %s (%d/%d cells, %d simulated, %d cached, %d shared, %d failed)",
		doc.ID, doc.State, doc.Cells.Done, doc.Cells.Total,
		doc.Cells.Simulated, doc.Cells.CacheMemory+doc.Cells.CacheStore,
		doc.Cells.Shared, doc.Cells.Failed)
}

// observe returns the progress callback of j's RunSuite: it turns each
// harness.CellEvent into the job's SSE event, its CellCounts and the
// server's cells_* counters. The harness reports a cell a cache tier
// served, or one that failed before it started, without CellStarted;
// every cell's SSE stream opens with cell.started, so observe emits
// the missing one.
func (s *Server) observe(j *job) harness.ProgressFunc {
	started := make(map[[2]string]bool, j.counts.Total)
	return func(ev harness.CellEvent) {
		j.mu.Lock()
		defer j.mu.Unlock()
		if cell := [2]string{ev.Config, ev.Workload}; !started[cell] {
			started[cell] = true
			j.log.append(Event{Type: EventCellStarted, Config: ev.Config, Workload: ev.Workload})
		}
		if ev.Type == harness.CellStarted {
			return
		}
		c := &j.counts
		c.Done++
		out := Event{
			Type: EventCellFinished, Config: ev.Config, Workload: ev.Workload,
			Source: ev.Source, ElapsedMS: ev.Duration.Milliseconds(),
			Done: c.Done, Total: c.Total,
		}
		switch {
		case ev.Type == harness.CellFailed:
			c.Failed++
			s.stats.inc(&s.stats.cellsFailed)
			out.Type, out.Error = EventCellFailed, ev.Err.Error()
		case ev.Source == SourceSimulated:
			c.Simulated++
			s.stats.inc(&s.stats.cellsSimulated)
		case ev.Source == SourceCacheMemory:
			c.CacheMemory++
			s.stats.inc(&s.stats.cellsCacheMemory)
		case ev.Source == SourceCacheStore:
			c.CacheStore++
			s.stats.inc(&s.stats.cellsCacheStore)
		case ev.Source == SourceShared:
			c.Shared++
			s.stats.inc(&s.stats.cellsShared)
		}
		j.log.append(out)
	}
}

// countTerminal bumps the job outcome counter for a finalized job
// and releases the paying tenant's in-flight slot.
func (s *Server) countTerminal(j *job) {
	if j.payer != nil {
		j.payer.jobDone()
	}
	_, state, _ := j.resultBytes()
	switch state {
	case StateCompleted:
		s.stats.inc(&s.stats.jobsCompleted)
	case StateDegraded:
		s.stats.inc(&s.stats.jobsDegraded)
	case StateFailed:
		s.stats.inc(&s.stats.jobsFailed)
	case StateCanceled:
		s.stats.inc(&s.stats.jobsCanceled)
	}
}

// submit admits a resolved job, deduplicating by content address.
// The returned bool reports whether the job already existed; a nil
// job with errFull means the queue rejected the submission. A
// remembered job that ended failed, degraded or canceled is replaced
// by a fresh admission: resubmitting is how a client re-runs it.
var errQueueFull = fmt.Errorf("server: job queue full")
var errDraining = fmt.Errorf("server: draining, not admitting jobs")

func (s *Server) submit(spec *jobSpec, owner *tenantState) (*job, bool, error) {
	select {
	case <-s.draining:
		return nil, false, errDraining
	default:
	}

	s.mu.Lock()
	prev := s.jobs[spec.id]
	if prev != nil && !prev.rerunnable() {
		if owner != nil {
			prev.addOwner(owner.t.Name)
			owner.countDeduped()
		}
		// The hit makes the job the newest remembered one, so pruning
		// cannot forget it before the deduping client reads it.
		s.dropJobOrderLocked(spec.id)
		s.jobOrder = append(s.jobOrder, spec.id)
		s.mu.Unlock()
		s.stats.inc(&s.stats.jobsDeduped)
		return prev, true, nil
	}
	tier := 0
	if owner != nil {
		// A deduped submission is free; only net-new work is charged
		// against the tenant's in-flight and cells/sec quotas.
		if qerr := owner.admitJob(spec.cellCount(), s.tenants.now()); qerr != nil {
			s.mu.Unlock()
			s.stats.inc(&s.stats.quotaRejected)
			return nil, false, qerr
		}
		tier = owner.tier
	}
	j := newJob(spec)
	if owner != nil {
		j.payer = owner
		j.addOwner(owner.t.Name)
	}
	if prev != nil {
		// Tenants that could read the dead job keep access to its ID.
		for _, name := range prev.ownerNames() {
			j.addOwner(name)
		}
		s.dropJobOrderLocked(spec.id)
	}
	s.jobs[spec.id] = j
	s.jobOrder = append(s.jobOrder, spec.id)
	s.mu.Unlock()

	if !s.queue.push(j, tier) {
		// Queue full: withdraw the registration entirely (so a retry
		// after Retry-After is a fresh submission, not a dedupe hit on
		// a job that will never run), put back the dead job it was
		// replacing, and refund the quota charge.
		s.mu.Lock()
		delete(s.jobs, spec.id)
		s.dropJobOrderLocked(spec.id)
		if prev != nil {
			s.jobs[spec.id] = prev
			s.jobOrder = append(s.jobOrder, spec.id)
		}
		s.mu.Unlock()
		if owner != nil {
			owner.refundAdmission(spec.cellCount())
		}
		j.cancel()
		s.stats.inc(&s.stats.jobsRejected)
		return nil, false, errQueueFull
	}
	// Prune only once the job is admitted: a rejected submission must
	// not cost an older finished job its place in memory.
	s.mu.Lock()
	s.pruneJobsLocked(spec.id)
	s.mu.Unlock()
	s.stats.inc(&s.stats.jobsSubmitted)
	return j, false, nil
}

// dropJobOrderLocked removes id from jobOrder.
func (s *Server) dropJobOrderLocked(id string) {
	for i, o := range s.jobOrder {
		if o == id {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			return
		}
	}
}

// pruneJobsLocked forgets the oldest terminal jobs beyond MaxJobs,
// never the just-admitted job keep (it may already have finished).
func (s *Server) pruneJobsLocked(keep string) {
	for len(s.jobOrder) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.jobOrder {
			if id == keep {
				continue
			}
			j := s.jobs[id]
			j.mu.Lock()
			terminal := terminalState(j.state)
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything live; do not forget running work
		}
	}
}

// lookup returns a job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob cancels a job by ID; queued jobs finalize immediately.
func (s *Server) cancelJob(j *job) {
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued && j.finalize(nil) {
		s.countTerminal(j)
	}
}

// Drain gracefully stops the server: admission closes (submissions
// get 503), queued jobs are canceled, running jobs get DrainGrace to
// finish (their completed cells are already checkpointed), then are
// canceled. Drain returns when every worker has exited.
func (s *Server) Drain() {
	s.drainOne.Do(func() {
		s.cfg.Logf("server: draining (grace %v)", s.cfg.DrainGrace)
		close(s.draining)
		s.queue.close()

		grace := time.NewTimer(s.cfg.DrainGrace)
		defer grace.Stop()
		select {
		case <-s.drained:
		case <-grace.C:
			s.cfg.Logf("server: drain grace expired, canceling running jobs")
			s.mu.Lock()
			for _, id := range s.jobOrder {
				s.jobs[id].cancel()
			}
			s.mu.Unlock()
			<-s.drained
		}
		s.cfg.Logf("server: drained")
	})
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}
