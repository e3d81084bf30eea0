package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"entangling/internal/client"
	"entangling/internal/harness"
	"entangling/internal/server"
	"entangling/internal/workload"
)

// servingSpecs are the registry workloads both serving workloads use:
// crypto-00, int-00, fp-00 and srv-00.
func servingSpecs() []workload.Spec { return workload.CVPSuite(1) }

func specNames(specs []workload.Spec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

func configNames(cfgs []harness.Configuration) []string {
	var out []string
	for _, c := range cfgs {
		out = append(out, c.Name)
	}
	return out
}

// paperSweeps are the configuration lineups cmd/paperfigs sweeps over
// the CVP suite, in the order it runs them: Figures 6-10 and Table IV,
// the Figure 11 ablation, the Entangling statistics of Figures 12-15,
// the physical-address study of §IV-E, and the split, context and
// retire extensions. results/paperfigs_full.log records one such run.
// The serving workloads submit these lineups as their jobs, so their
// job shapes are the ones reproducing the paper over HTTP produces.
// Figure 16 sweeps the CloudSuite traces instead and is left out.
func paperSweeps() [][]string {
	return [][]string{
		configNames(harness.StandardConfigurations()),
		configNames(harness.AblationConfigurations()),
		{"no", "entangling-2k", "entangling-4k", "entangling-8k"},
		configNames(harness.PhysicalConfigurations()),
		configNames(harness.SplitConfigurations()),
		configNames(harness.ContextConfigurations()),
		configNames(harness.RetireConfigurations()),
	}
}

// paperJobs returns one job per paper sweep and serving workload, in
// the order seed draws: one paper reproduction, a workload at a time.
// Seed 0 keeps cmd/paperfigs' order.
func paperJobs(seed, warmup, measure uint64) []server.JobRequest {
	var jobs []server.JobRequest
	for _, cfgs := range paperSweeps() {
		for _, wl := range specNames(servingSpecs()) {
			jobs = append(jobs, server.JobRequest{Configurations: cfgs, Workloads: []string{wl}, Warmup: warmup, Measure: measure})
		}
	}
	if seed == 0 {
		return jobs
	}
	for i := len(jobs) - 1; i > 0; i-- {
		j := int(draw(seed, uint64(i)) % uint64(i+1))
		jobs[i], jobs[j] = jobs[j], jobs[i]
	}
	return jobs
}

// node is an in-process job server with its closed-loop clients.
type node struct {
	srv        *server.Server
	ts         *httptest.Server
	clients    []*client.Client
	transports []*http.Transport
}

// startNode boots a server with procs workers and procs cells per job.
func startNode() (*node, error) {
	srv, err := server.New(server.Config{
		Workers:         procs,
		CellParallelism: procs,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	n := &node{srv: srv, ts: httptest.NewServer(srv.Handler())}
	for i := 0; i < procs; i++ {
		// One transport per client, like separate client processes: each
		// keeps its own connections alive across ops.
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		n.transports = append(n.transports, tr)
		cl, err := client.New(client.Config{BaseURL: n.ts.URL, HTTP: &http.Client{Transport: tr}})
		if err != nil {
			n.stop()
			return nil, err
		}
		n.clients = append(n.clients, cl)
	}
	return n, nil
}

// stop drains the server (ending event streams), closes the listener
// once every request has finished and drops the clients' connections.
func (n *node) stop() {
	n.srv.Drain()
	n.ts.Close()
	for _, tr := range n.transports {
		tr.CloseIdleConnections()
	}
}

// closedLoop runs ops 0..count-1 on the node's clients; each client
// issues its next op only after its previous op completed.
func (n *node) closedLoop(ctx context.Context, count int, do func(ctx context.Context, cl *client.Client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range n.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count || ctx.Err() != nil {
					return
				}
				do(ctx, cl, i)
			}
		}()
	}
	wg.Wait()
}

// jobTimes are the client-side instants that split one job into its
// consecutive stages: submit (the POST round trip), queue (to
// job.started, including the event-stream connect), run (to job.done)
// and fetch (the GET of the result document).
type jobTimes struct {
	issued, submitted, started, done, received time.Time
}

// jobOutcome is one completed job as the client saw it.
type jobOutcome struct {
	t       jobTimes
	deduped bool
	doc     server.ResultDoc
	simMS   []float64 // elapsed_ms of cells this job simulated
}

// runJob submits req, follows its event stream to job.done (rather
// than polling, which would quantise latency) and fetches the result.
// A job that does not complete every cell is an error.
func runJob(ctx context.Context, cl *client.Client, req server.JobRequest) (jobOutcome, error) {
	var o jobOutcome
	o.t.issued = time.Now()
	sub, err := cl.Submit(ctx, req)
	if err != nil {
		return o, err
	}
	o.t.submitted = time.Now()
	o.deduped = sub.Deduped
	err = cl.Events(ctx, sub.ID, func(ev server.Event) error {
		now := time.Now()
		switch ev.Type {
		case server.EventJobStarted:
			o.t.started = now
		case server.EventCellFinished:
			if ev.Source == server.SourceSimulated {
				o.simMS = append(o.simMS, float64(ev.ElapsedMS))
			}
		case server.EventJobDone:
			o.t.done = now
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	if o.t.started.IsZero() {
		o.t.started = o.t.done // a job canceled while queued never starts
	}
	doc, _, ok, err := cl.Result(ctx, sub.ID)
	o.t.received = time.Now()
	if err != nil {
		return o, err
	}
	if !ok {
		return o, fmt.Errorf("job %s: no result after job.done", sub.ID)
	}
	o.doc = doc
	if want := len(req.Configurations) * len(req.Workloads); doc.State != server.StateCompleted || doc.Cells.Done != want || doc.Cells.Failed != 0 {
		return o, fmt.Errorf("job %s: %s with %d of %d cells done, %d failed", sub.ID, doc.State, doc.Cells.Done, want, doc.Cells.Failed)
	}
	return o, nil
}

// op converts the job's times to a sample timed against the rep's
// start. Each stage ends where the next begins, so the stages sum to the
// latency exactly.
func (t jobTimes) op(start time.Time) op {
	o := op{issued: t.issued.Sub(start), lat: t.received.Sub(t.issued)}
	o.stages[stageSubmit] = t.submitted.Sub(t.issued)
	o.stages[stageQueue] = t.started.Sub(t.submitted)
	o.stages[stageRun] = t.done.Sub(t.started)
	o.stages[stageFetch] = t.received.Sub(t.done)
	return o
}

func (c *serverCounts) addJob(o jobOutcome) {
	c.jobs++
	if o.deduped {
		c.deduped++
		return
	}
	c.cells += o.doc.Cells.Done - o.doc.Cells.Failed
	c.simulated += o.doc.Cells.Simulated
	c.cacheMemory += o.doc.Cells.CacheMemory
	c.shared += o.doc.Cells.Shared
}

// opLog collects a rep's samples from the concurrent clients.
type opLog struct {
	mu     sync.Mutex
	r      *rep
	traced bool
	start  time.Time
	errs   []string
	// docs[i] is job i's result document. Only the first copy of each
	// job keeps its metrics: the checks need no more, and the benchmark's
	// own memory would otherwise show in peak_rss_mb.
	docs []server.ResultDoc
	kept map[string]bool
}

func (l *opLog) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.failed++
	if len(l.errs) < 3 {
		l.errs = append(l.errs, err.Error())
	}
}

func (l *opLog) job(i int, o jobOutcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.kept[o.doc.ID] {
		o.doc.Metrics = nil
	}
	l.kept[o.doc.ID] = true
	l.docs[i] = o.doc
	l.r.ops = append(l.r.ops, o.t.op(l.start))
	if l.traced {
		l.r.counts.addJob(o)
		l.r.cellMS = append(l.r.cellMS, o.simMS...)
	}
}

// measureJobs times the jobs as closed-loop ops on n, the rep's measured
// part, recording allocations on a traced rep. It returns each job's
// result document (empty for a failed job) and up to three errors.
func measureJobs(ctx context.Context, n *node, r *rep, traced bool, jobs []server.JobRequest) ([]server.ResultDoc, []string) {
	log := &opLog{r: r, traced: traced, docs: make([]server.ResultDoc, len(jobs)), kept: map[string]bool{}}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	log.start = time.Now()
	n.closedLoop(ctx, len(jobs), func(ctx context.Context, cl *client.Client, i int) {
		o, err := runJob(ctx, cl, jobs[i])
		if err != nil {
			log.fail(err)
			return
		}
		log.job(i, o)
	})
	r.wall = time.Since(log.start)
	if traced {
		runtime.ReadMemStats(&m1)
		r.allocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	return log.docs, log.errs
}

// directSHA runs the job's cells straight through the harness and
// fingerprints them, to check the server answers what the simulator
// computes.
func directSHA(ctx context.Context, req server.JobRequest) (string, error) {
	known := map[string]harness.Configuration{}
	for _, c := range harness.KnownConfigurations() {
		known[c.Name] = c
	}
	var cfgs []harness.Configuration
	for _, name := range req.Configurations {
		cfgs = append(cfgs, known[name])
	}
	byName := map[string]workload.Spec{}
	for _, s := range servingSpecs() {
		byName[s.Name] = s
	}
	var specs []workload.Spec
	for _, name := range req.Workloads {
		specs = append(specs, byName[name])
	}
	s, err := harness.RunSuiteCtx(ctx, specs, cfgs, harness.Options{Warmup: req.Warmup, Measure: req.Measure, Parallelism: procs})
	if err != nil {
		return "", err
	}
	return fingerprint(s)
}

// checkDirect counts the served documents whose fingerprint differs
// from a direct harness run of the same job. A failed job's empty
// document is skipped: it is already counted as failed.
func checkDirect(ctx context.Context, jobs []server.JobRequest, docs []server.ResultDoc) (int, error) {
	bad := 0
	for i, req := range jobs {
		if docs[i].ID == "" {
			continue
		}
		want, err := directSHA(ctx, req)
		if err != nil {
			return 0, fmt.Errorf("direct run of job %d: %w", i, err)
		}
		if docs[i].MetricsSHA256 != want {
			bad++
		}
	}
	return bad, nil
}

// failRep turns a rep whose answers were found wrong after its measured
// part, like a sweep's fingerprint, into one whose every op failed.
func failRep(res *result, r *rep, what string) {
	r.failed += len(r.ops)
	r.ops = nil
	res.correct = false
	res.notes = append(res.notes, what)
}

// runServeCold measures a cold reproduction of the paper over HTTP: each
// rep boots a fresh server and runs paperJobs, each job with its own
// warmup length so that no cell or trace is shared. The set-up is
// booting the server and one warm-up job.
func runServeCold(ctx context.Context, p params) (*result, error) {
	sc := p.scale
	jobs := paperJobs(p.seed, sc.serveWarmup, sc.serveMeasure)
	for i := range jobs {
		jobs[i].Warmup += uint64(i) + 1
	}
	warmReq := server.JobRequest{Configurations: []string{"no"}, Workloads: specNames(servingSpecs())[:1], Warmup: sc.serveWarmup, Measure: sc.serveMeasure}

	res := &result{correct: true}
	var firstSHAs []string
	reps, err := measureReps(ctx, p, func(ctx context.Context, i int, traced bool) (rep, error) {
		var r rep
		t0 := time.Now()
		n, err := startNode()
		if err != nil {
			return r, err
		}
		defer n.stop()
		warm, err := runJob(ctx, n.clients[0], warmReq)
		if err != nil {
			return r, fmt.Errorf("warm-up job: %w", err)
		}
		if err := r.endSetup(t0); err != nil {
			return r, err
		}

		docs, errs := measureJobs(ctx, n, &r, traced, jobs)
		res.notes = append(res.notes, errs...)
		if traced {
			r.cellMS = append(r.cellMS, warm.simMS...)
		}
		// Rep 0's answers are checked against the harness after its
		// measured part; every later rep must reproduce them.
		if i == 0 {
			bad, err := checkDirect(ctx, jobs, docs)
			if err != nil {
				return r, err
			}
			for _, d := range docs {
				firstSHAs = append(firstSHAs, d.MetricsSHA256)
			}
			if bad > 0 {
				failRep(res, &r, fmt.Sprintf("rep 0: %d jobs differ from direct harness runs", bad))
			}
			return r, nil
		}
		bad := 0
		for j, d := range docs {
			if d.ID != "" && d.MetricsSHA256 != firstSHAs[j] {
				bad++
			}
		}
		if bad > 0 {
			failRep(res, &r, fmt.Sprintf("rep %d: %d jobs differ from rep 0", i, bad))
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return finish(p, res, reps, procs, func() ([]metric, error) {
		return simLayers(ctx, servingSpecs(), sc.serveWarmup, sc.serveMeasure, sc.ladderSample)
	})
}

// runServeHot measures a server answering a paper reproduction it has
// already computed. Each rep boots a fresh server and, as its set-up,
// runs every paper sweep over all serving workloads. Then the clients
// submit hotOps jobs, each drawn from paperJobs: the first submission
// of a job is answered from the result cache, later ones join it
// through job dedupe.
func runServeHot(ctx context.Context, p params) (*result, error) {
	sc := p.scale
	var prewarm []server.JobRequest
	for _, cfgs := range paperSweeps() {
		prewarm = append(prewarm, server.JobRequest{Configurations: cfgs, Workloads: specNames(servingSpecs()), Warmup: sc.serveWarmup, Measure: sc.serveMeasure})
	}
	shapes := paperJobs(0, sc.serveWarmup, sc.serveMeasure)
	jobs := make([]server.JobRequest, sc.hotOps)
	for i := range jobs {
		jobs[i] = shapes[draw(p.seed, uint64(i))%uint64(len(shapes))]
	}

	res := &result{correct: true}
	reps, err := measureReps(ctx, p, func(ctx context.Context, i int, traced bool) (rep, error) {
		var r rep
		t0 := time.Now()
		n, err := startNode()
		if err != nil {
			return r, err
		}
		defer n.stop()
		pre := make([]server.ResultDoc, len(prewarm))
		var preMS []float64
		for k, req := range prewarm {
			o, err := runJob(ctx, n.clients[0], req)
			if err != nil {
				return r, fmt.Errorf("prewarm job %d: %w", k, err)
			}
			pre[k] = o.doc
			preMS = append(preMS, o.simMS...)
		}
		if err := r.endSetup(t0); err != nil {
			return r, err
		}

		docs, errs := measureJobs(ctx, n, &r, traced, jobs)
		res.notes = append(res.notes, errs...)
		if traced {
			r.cellMS = append(r.cellMS, preMS...)
		}
		bad, err := checkHotDocs(pre, docs)
		if err != nil {
			return r, err
		}
		if i == 0 {
			wrong, err := checkDirect(ctx, prewarm, pre)
			if err != nil {
				return r, err
			}
			bad += wrong
		}
		if bad > 0 {
			failRep(res, &r, fmt.Sprintf("rep %d: %d jobs disagree with the prewarmed cells or the harness", i, bad))
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return finish(p, res, reps, procs, func() ([]metric, error) {
		return simLayers(ctx, servingSpecs(), sc.serveWarmup, sc.serveMeasure, sc.ladderSample)
	})
}

// checkHotDocs counts served job documents that disagree with the
// prewarm jobs: every cell's row must equal its prewarmed row (less
// coverage and speedup, which depend on the job's other cells), a cell
// two prewarm jobs share must have one row, and repeats of one job must
// share a fingerprint.
func checkHotDocs(prewarm, docs []server.ResultDoc) (int, error) {
	rows := func(doc server.ResultDoc) (map[string]harness.RunMetrics, error) {
		var m harness.SuiteMetrics
		if err := json.Unmarshal(doc.Metrics, &m); err != nil {
			return nil, fmt.Errorf("decoding job %s metrics: %w", doc.ID, err)
		}
		out := map[string]harness.RunMetrics{}
		for _, r := range m.Runs {
			r.Coverage, r.Speedup = nil, nil
			out[r.Config+"/"+r.Workload] = r
		}
		return out, nil
	}
	bad := 0
	want := map[string]harness.RunMetrics{}
	for _, doc := range prewarm {
		got, err := rows(doc)
		if err != nil {
			return 0, err
		}
		for key, row := range got {
			if w, ok := want[key]; ok && !reflect.DeepEqual(w, row) {
				bad++
			}
			want[key] = row
		}
	}
	shas := map[string]string{}
	for _, doc := range docs {
		if doc.ID == "" {
			continue // a failed job, already counted
		}
		if sha, ok := shas[doc.ID]; !ok {
			shas[doc.ID] = doc.MetricsSHA256
		} else if sha != doc.MetricsSHA256 {
			bad++
		}
		if doc.Metrics == nil {
			continue // a repeat whose metrics another copy kept
		}
		got, err := rows(doc)
		if err != nil {
			return 0, err
		}
		for key, row := range got {
			if w, ok := want[key]; !ok || !reflect.DeepEqual(row, w) {
				bad++
				break
			}
		}
	}
	return bad, nil
}
