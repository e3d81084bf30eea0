package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the HTTP surface of the job server: the /v1 JSON API,
// the SSE progress stream, and the health/metrics endpoints. Routing
// uses Go 1.22 method+pattern ServeMux matching; everything is
// stdlib.

// errorDoc is the JSON body of every non-2xx response. Reason is a
// machine-readable rejection class (the Reason* constants) so
// clients can build an error taxonomy without parsing prose.
type errorDoc struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func writeErrorReason(w http.ResponseWriter, status int, reason, format string, args ...any) {
	writeJSON(w, status, errorDoc{Error: fmt.Sprintf(format, args...), Reason: reason})
}

// authenticate resolves the request's tenant. On an open server it
// returns (nil, true) — no auth, no quotas. On a multi-tenant server
// a missing or unknown key answers 401 and returns false; the caller
// must stop.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	if s.tenants == nil {
		return nil, true
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key == "" {
		s.stats.inc(&s.stats.authFailures)
		writeErrorReason(w, http.StatusUnauthorized, ReasonUnauthorized,
			"missing API key (send Authorization: Bearer <key> or X-API-Key)")
		return nil, false
	}
	st, ok := s.tenants.lookup(key)
	if !ok {
		s.stats.inc(&s.stats.authFailures)
		writeErrorReason(w, http.StatusUnauthorized, ReasonUnauthorized, "unknown API key")
		return nil, false
	}
	return st, true
}

// reject answers a request with an error and, when a tenant made it,
// counts the rejection under that tenant's reason. Quota rejections
// are counted by the quota check itself and do not come through here.
func reject(w http.ResponseWriter, st *tenantState, status int, reason, format string, args ...any) {
	if st != nil {
		st.countRejected(reason)
	}
	writeErrorReason(w, status, reason, format, args...)
}

// requestJob authenticates the request and resolves its {id} job. On
// a multi-tenant server only a tenant that submitted (or deduped onto)
// the job may read or cancel it. On false the response is written and
// the caller must stop.
func (s *Server) requestJob(w http.ResponseWriter, r *http.Request) (*tenantState, *job, bool) {
	st, ok := s.authenticate(w, r)
	if !ok {
		return nil, nil, false
	}
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		reject(w, st, http.StatusNotFound, ReasonNotFound, "unknown job %q", r.PathValue("id"))
		return nil, nil, false
	}
	if st != nil && !j.isOwner(st.t.Name) {
		s.stats.inc(&s.stats.authForbidden)
		reject(w, st, http.StatusForbidden, ReasonForbidden,
			"tenant %q does not own job %s", st.t.Name, j.spec.id)
		return nil, nil, false
	}
	return st, j, true
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceStat)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// submitResponse is the POST /v1/jobs body: the job identity plus
// resource links, so clients need no URL templating.
type submitResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped"`
	Cells   int    `json:"cells"`
	Status  string `json:"status_url"`
	Events  string `json:"events_url"`
	Result  string `json:"result_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	st, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := parseJobRequest(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			reject(w, st, http.StatusRequestEntityTooLarge, ReasonTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		reject(w, st, http.StatusBadRequest, ReasonBadRequest, "%v", err)
		return
	}
	if req.FaultPlan != nil && st != nil && !st.t.AllowFaults {
		s.stats.inc(&s.stats.authForbidden)
		reject(w, st, http.StatusForbidden, ReasonForbidden,
			"tenant %q is not allowed to submit fault plans", st.t.Name)
		return
	}
	spec, err := s.reg.resolve(req, s.cfg.Budget, s.cfg.MaxCells, s.cfg.AllowFaults, s.resolveTraceWorkload)
	if err != nil {
		reject(w, st, http.StatusBadRequest, ReasonBadRequest, "%v", err)
		return
	}

	j, existed, err := s.submit(spec, st)
	var qerr *quotaError
	switch {
	case errors.Is(err, errDraining):
		reject(w, st, http.StatusServiceUnavailable, ReasonDraining, "server is draining")
		return
	case errors.As(err, &qerr):
		retry := 1
		if qerr.reason == ReasonQuotaCellRate {
			retry = st.retryAfter(s.tenants.now())
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErrorReason(w, http.StatusTooManyRequests, qerr.reason, "%s", qerr.msg)
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		reject(w, st, http.StatusTooManyRequests, ReasonQueueFull,
			"job queue full (%d jobs); retry later", s.cfg.QueueCapacity)
		return
	case err != nil:
		writeErrorReason(w, http.StatusInternalServerError, ReasonInternal, "%v", err)
		return
	}

	status := http.StatusAccepted
	if existed {
		status = http.StatusOK
	}
	doc := j.status()
	writeJSON(w, status, submitResponse{
		ID:      doc.ID,
		State:   doc.State,
		Deduped: existed,
		Cells:   doc.Cells.Total,
		Status:  "/v1/jobs/" + doc.ID,
		Events:  "/v1/jobs/" + doc.ID + "/events",
		Result:  "/v1/jobs/" + doc.ID + "/result",
	})
}

// retryAfterSeconds estimates a Retry-After hint from queue pressure:
// one drained queue slot per running-job completion, so the deeper
// the backlog relative to workers, the longer the hint.
func (s *Server) retryAfterSeconds() int {
	backlog := s.queue.depth()
	per := 2 // seconds; a guess that scales with backlog, not accuracy
	sec := (backlog/s.cfg.Workers + 1) * per
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	_, j, ok := s.requestJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	_, j, ok := s.requestJob(w, r)
	if !ok {
		return
	}
	b, state, terminal := j.resultBytes()
	if !terminal {
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusAccepted, StatusDoc{ID: j.spec.id, State: state, Cells: j.status().Cells})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// handleCancel cancels a job. On a multi-tenant server a shared
// (deduped) job is only truly canceled when its last owner lets go:
// earlier cancels just withdraw that tenant's interest, so one tenant
// cannot kill a sweep another tenant is still waiting on.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, j, ok := s.requestJob(w, r)
	if !ok {
		return
	}
	if st == nil || j.dropOwner(st.t.Name) == 0 {
		s.cancelJob(j)
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's progress log as Server-Sent Events.
// The full history replays from the start (or from Last-Event-ID on
// reconnect), then the stream follows the live tail and ends after
// the terminal job.done event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	_, j, ok := s.requestJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErrorReason(w, http.StatusInternalServerError, ReasonInternal, "streaming unsupported")
		return
	}

	cursor := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n > 0 {
			cursor = n
		}
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		events, wake, closed := j.log.snapshotAfter(cursor)
		for _, ev := range events {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.data())
			cursor = ev.Seq
		}
		if len(events) > 0 {
			fl.Flush()
			continue
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.draining:
			// Drain closes streams promptly so Shutdown is not held
			// open by idle followers; clients reconnect elsewhere.
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErrorReason(w, http.StatusServiceUnavailable, ReasonUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the counter set in Prometheus text exposition
// format (hand-written; the API is stable and dependency-free).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	ld := func(f *uint64) uint64 { return atomic.LoadUint64(f) }

	c := &s.stats
	counter("entangling_jobs_submitted_total", "Jobs admitted to the queue.", ld(&c.jobsSubmitted))
	counter("entangling_jobs_deduped_total", "Submissions answered by an existing identical job.", ld(&c.jobsDeduped))
	counter("entangling_jobs_rejected_total", "Submissions rejected with 429 (queue full).", ld(&c.jobsRejected))
	counter("entangling_jobs_completed_total", "Jobs finished with every cell successful.", ld(&c.jobsCompleted))
	counter("entangling_jobs_degraded_total", "Jobs finished with typed partial results.", ld(&c.jobsDegraded))
	counter("entangling_jobs_failed_total", "Jobs finished with every cell failed.", ld(&c.jobsFailed))
	counter("entangling_jobs_canceled_total", "Jobs canceled before completion.", ld(&c.jobsCanceled))

	counter("entangling_cells_simulated_total", "Cells resolved by running the simulator.", ld(&c.cellsSimulated))
	counter("entangling_cells_cache_memory_total", "Cells served from the in-process result cache.", ld(&c.cellsCacheMemory))
	counter("entangling_cells_cache_store_total", "Cells served from the durable checkpoint store.", ld(&c.cellsCacheStore))
	counter("entangling_cells_shared_total", "Cells that joined another job's in-flight simulation.", ld(&c.cellsShared))
	counter("entangling_cells_failed_total", "Cells that produced a typed failure.", ld(&c.cellsFailed))

	counter("entangling_traces_uploaded_total", "Traces ingested via POST /v1/traces.", ld(&c.tracesUploaded))
	counter("entangling_traces_deduped_total", "Trace uploads answered by existing content.", ld(&c.tracesDeduped))
	counter("entangling_traces_rejected_total", "Trace uploads rejected (malformed or over budget).", ld(&c.tracesRejected))

	counter("entangling_auth_failures_total", "Requests rejected 401 (missing or unknown API key).", ld(&c.authFailures))
	counter("entangling_auth_forbidden_total", "Requests rejected 403 (disallowed action).", ld(&c.authForbidden))
	counter("entangling_quota_rejected_total", "Submissions rejected 429 by a tenant quota.", ld(&c.quotaRejected))

	builds, hits, resident := s.traces.CacheStats()
	counter("entangling_trace_builds_total", "Workload trace materializations performed.", builds)
	counter("entangling_trace_hits_total", "Workload trace cache hits.", hits)
	gauge("entangling_trace_resident", "Workload traces currently resident.", resident)

	s.mu.Lock()
	running, known := s.running, len(s.jobs)
	s.mu.Unlock()
	gauge("entangling_queue_depth", "Jobs admitted but not yet running.", s.queue.depth())
	gauge("entangling_jobs_running", "Jobs currently executing.", running)
	gauge("entangling_jobs_known", "Jobs currently remembered (any state).", known)
	gauge("entangling_goroutines", "Goroutines in the server process.", runtime.NumGoroutine())

	// Per-tenant sections, labeled in Prometheus style. Absent on an
	// open server.
	if s.tenants != nil {
		labeled := func(name, help, typ string) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
		snaps := s.tenants.snapshot()
		labeled("entangling_tenant_jobs_in_flight", "Non-terminal jobs charged to the tenant.", "gauge")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_jobs_in_flight{tenant=%q,tier=%q} %d\n", m.Name, m.Tier, m.Inflight)
		}
		labeled("entangling_tenant_jobs_submitted_total", "Jobs admitted for the tenant.", "counter")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_jobs_submitted_total{tenant=%q} %d\n", m.Name, m.JobsSubmitted)
		}
		labeled("entangling_tenant_jobs_deduped_total", "Tenant submissions answered by an existing job.", "counter")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_jobs_deduped_total{tenant=%q} %d\n", m.Name, m.JobsDeduped)
		}
		labeled("entangling_tenant_jobs_completed_total", "Tenant jobs that reached a terminal state.", "counter")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_jobs_completed_total{tenant=%q} %d\n", m.Name, m.JobsCompleted)
		}
		labeled("entangling_tenant_cells_charged_total", "Cells charged against the tenant's rate quota.", "counter")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_cells_charged_total{tenant=%q} %d\n", m.Name, m.CellsCharged)
		}
		labeled("entangling_tenant_traces_uploaded_total", "Traces the tenant ingested.", "counter")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_traces_uploaded_total{tenant=%q} %d\n", m.Name, m.TracesUploaded)
		}
		labeled("entangling_tenant_trace_bytes_used", "Stored trace bytes charged to the tenant.", "gauge")
		for _, m := range snaps {
			fmt.Fprintf(&sb, "entangling_tenant_trace_bytes_used{tenant=%q} %d\n", m.Name, m.TraceBytes)
		}
		labeled("entangling_tenant_rejected_total", "Tenant requests rejected, by reason.", "counter")
		for _, m := range snaps {
			reasons := make([]string, 0, len(m.Rejected))
			for reason := range m.Rejected {
				reasons = append(reasons, reason)
			}
			sort.Strings(reasons)
			for _, reason := range reasons {
				fmt.Fprintf(&sb, "entangling_tenant_rejected_total{tenant=%q,reason=%q} %d\n", m.Name, reason, m.Rejected[reason])
			}
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, sb.String())
}

// Run listens on cfg.Addr and serves until ctx is canceled, then
// drains gracefully: admission stops, queued jobs cancel, running
// jobs get the grace period, the checkpoint store is already durable
// per-cell, and the HTTP server shuts down. Returns nil on a clean
// drain. The bound address is logged (and available via Addr) so
// callers can use ":0".
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.addr.Store(ln.Addr().String())
	s.cfg.Logf("server: listening on %s", ln.Addr())

	s.Start()
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}

	s.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	return nil
}

// Addr returns the bound listen address once Run has started
// listening ("" before that).
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}
