package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"entangling/internal/faultinject"
	"entangling/internal/fleet"
	"entangling/internal/harness"
	"entangling/internal/leakcheck"
	"entangling/internal/server"
	"entangling/internal/workload"
)

// This file is the differential fleet battery: the pinned 28-cell
// sweep (7 configurations x 4 CVP workloads) dispatched through a
// coordinator onto in-process httptest workers must export metrics
// byte-identical — equal SHA-256 — to the same sweep run entirely
// in-process, across fault seeds, mid-job worker kills with restart,
// dead-from-the-start failover, and work-steal races provoked by
// injected slow cells. Every test is leak-checked: when its drains
// finish, the goroutine count is back at baseline.

// Small windows keep every cell in the low-millisecond range.
const (
	testWarmup  = 20_000
	testMeasure = 10_000
)

func pinnedConfigNames() []string {
	var names []string
	for _, c := range harness.PinnedBenchConfigurations() {
		names = append(names, c.Name)
	}
	return names
}

func pinnedWorkloadNames() []string {
	var names []string
	for _, s := range harness.PinnedBenchSpecs() {
		names = append(names, s.Name)
	}
	return names
}

// pinnedRequest is the battery's job: the benchmark mini-sweep's cell
// grid at test windows — 28 cells.
func pinnedRequest() server.JobRequest {
	return server.JobRequest{
		Configurations: pinnedConfigNames(),
		Workloads:      pinnedWorkloadNames(),
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}
}

// killableWorker wraps a fleet worker in a switchable failure shim: a
// "killed" worker breaks every connection without an HTTP response,
// which is what a SIGKILLed process looks like from the coordinator.
// Reviving it models a restart on the same address.
type killableWorker struct {
	worker *fleet.Worker
	ts     *httptest.Server
	dead   atomic.Bool
}

func (k *killableWorker) kill() {
	k.dead.Store(true)
	// Sever in-flight and idle connections too, as a process death would.
	k.ts.CloseClientConnections()
}

func (k *killableWorker) revive() { k.dead.Store(false) }

// startWorker launches one leak-tracked fleet worker over httptest.
func startWorker(t *testing.T, id string, allowFaults bool) *killableWorker {
	t.Helper()
	k := &killableWorker{
		worker: fleet.NewWorker(fleet.WorkerConfig{
			ID:             id,
			Retries:        2,
			RetryBaseDelay: time.Millisecond,
			AllowFaults:    allowFaults,
			Logf:           t.Logf,
		}),
	}
	inner := k.worker.Handler()
	k.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if k.dead.Load() {
			if hj, ok := rw.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(k.ts.Close)
	return k
}

// fleetFixture is a coordinator-mode job server over N workers.
type fleetFixture struct {
	workers []*killableWorker
	coord   *fleet.Coordinator
	srv     *server.Server
	ts      *httptest.Server
}

type fixtureOpts struct {
	workers     int
	stealAfter  time.Duration
	allowFaults bool
	storeDir    string
}

// startFleet assembles workers, a coordinator replicating into
// storeDir, and a job server whose dispatcher is the coordinator.
func startFleet(t *testing.T, o fixtureOpts) *fleetFixture {
	t.Helper()
	if o.workers <= 0 {
		o.workers = 3
	}
	if o.stealAfter <= 0 {
		o.stealAfter = 10 * time.Second // effectively "no stealing" at test cell times
	}
	if o.storeDir == "" {
		o.storeDir = t.TempDir()
	}
	f := &fleetFixture{}
	var peers []string
	for i := 0; i < o.workers; i++ {
		w := startWorker(t, fmt.Sprintf("w%d", i), o.allowFaults)
		f.workers = append(f.workers, w)
		peers = append(peers, w.ts.URL)
	}
	store, err := harness.OpenCheckpointStore(o.storeDir)
	if err != nil {
		t.Fatalf("opening coordinator store: %v", err)
	}
	f.coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
		Peers:      peers,
		Store:      store,
		StealAfter: o.stealAfter,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(f.coord.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.coord.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	f.srv, err = server.New(server.Config{
		Workers:         1,
		CellParallelism: 4,
		QueueCapacity:   4,
		PerCategory:     1,
		AllowFaults:     o.allowFaults,
		DrainGrace:      5 * time.Second,
		Dispatcher:      f.coord,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	f.srv.Start()
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(func() {
		f.srv.Drain()
		f.ts.Close()
	})
	return f
}

// startLocalServer is the in-process reference the fleet is diffed
// against.
func startLocalServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Workers:         1,
		CellParallelism: 4,
		QueueCapacity:   4,
		PerCategory:     1,
		DrainGrace:      5 * time.Second,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
	})
	return ts
}

// submitJob posts a request that must be admitted and returns the job
// ID.
func submitJob(t *testing.T, ts *httptest.Server, req server.JobRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var sr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sr); err != nil || sr.ID == "" {
		t.Fatalf("decoding submit response: %v (%s)", err, body)
	}
	return sr.ID
}

// waitStatus polls the job until pred holds.
func waitStatus(t *testing.T, ts *httptest.Server, id string, pred func(server.StatusDoc) bool) server.StatusDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var doc server.StatusDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if pred(doc) {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the expected status (last: %+v)", id, doc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitResult polls the result endpoint until the job is terminal.
func waitResult(t *testing.T, ts *httptest.Server, id string) server.ResultDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading result: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			var doc server.ResultDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("decoding result: %v (%s)", err, body)
			}
			return doc
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("GET result: status %d, body %s", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never produced a result", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// directSweepSHA runs the request's cells through harness.RunSuiteCtx
// in this process and returns harness.MetricsFingerprint of the export
// — the ground truth every transport is diffed against.
func directSweepSHA(t *testing.T, req server.JobRequest) string {
	t.Helper()
	byName := make(map[string]harness.Configuration)
	for _, c := range harness.KnownConfigurations() {
		byName[c.Name] = c
	}
	var cfgs []harness.Configuration
	for _, n := range req.Configurations {
		c, ok := byName[n]
		if !ok {
			t.Fatalf("unknown configuration %q", n)
		}
		cfgs = append(cfgs, c)
	}
	specByName := make(map[string]workload.Spec)
	for _, s := range workload.CVPSuite(1) {
		specByName[s.Name] = s
	}
	var specs []workload.Spec
	for _, n := range req.Workloads {
		s, ok := specByName[n]
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		specs = append(specs, s)
	}
	suite, err := harness.RunSuiteCtx(context.Background(), specs, cfgs,
		harness.Options{Warmup: req.Warmup, Measure: req.Measure, Parallelism: 2})
	if err != nil {
		t.Fatalf("direct RunSuiteCtx: %v", err)
	}
	_, sha := harness.MetricsFingerprint(suite.Metrics())
	return sha
}

// requireEquivalent asserts a terminal job carries the reference
// export fingerprint with every cell resolved.
func requireEquivalent(t *testing.T, doc server.ResultDoc, wantSHA string) {
	t.Helper()
	if doc.State != server.StateCompleted {
		t.Fatalf("job state = %s, want completed (failed cells: %+v)", doc.State, doc.FailedCells)
	}
	if doc.Cells.Failed != 0 || doc.Cells.Done != doc.Cells.Total {
		t.Fatalf("cell counts %+v, want all %d done, none failed", doc.Cells, doc.Cells.Total)
	}
	// MetricsSHA256 covers the exact bytes harness.MetricsFingerprint
	// exports (the result doc re-indents its embedded copy, so the sha —
	// not the embedded bytes — is the cross-transport fingerprint).
	if doc.MetricsSHA256 != wantSHA {
		t.Fatalf("metrics sha %s != reference %s — fleet transport changed result bytes",
			doc.MetricsSHA256, wantSHA)
	}
}

// TestFleetDifferentialPinnedSweep is the core equivalence proof: the
// pinned 28-cell sweep through a 3-worker fleet is byte-identical to
// both the standalone job server and a direct harness run — same
// content-addressed job ID, same metrics SHA-256 — and every cell's
// provenance says the fleet actually did the work.
func TestFleetDifferentialPinnedSweep(t *testing.T) {
	leakcheck.Check(t)
	req := pinnedRequest()
	want := directSweepSHA(t, req)

	local := startLocalServer(t)
	localID := submitJob(t, local, req)
	localDoc := waitResult(t, local, localID)
	requireEquivalent(t, localDoc, want)

	f := startFleet(t, fixtureOpts{workers: 3})
	fleetID := submitJob(t, f.ts, req)
	if fleetID != localID {
		t.Fatalf("job identity diverged across dispatchers: fleet %s, local %s", fleetID, localID)
	}
	doc := waitResult(t, f.ts, fleetID)
	requireEquivalent(t, doc, want)
	if !bytes.Equal(doc.Metrics, localDoc.Metrics) {
		t.Fatal("fleet and local metrics exports differ byte-for-byte")
	}
	if doc.Cells.Fleet != doc.Cells.Total {
		t.Errorf("fleet resolved %d of %d cells; the rest leaked to another source: %+v",
			doc.Cells.Fleet, doc.Cells.Total, doc.Cells)
	}
	// The placement spread the sweep: every worker did some cells.
	for _, w := range f.workers {
		if w.worker.Completed() == 0 {
			t.Errorf("worker %s completed no cells — placement is not spreading", w.worker.ID())
		}
	}
	if st := f.coord.Stats(); st.Dispatched == 0 {
		t.Errorf("coordinator stats recorded no dispatches: %+v", st)
	}
}

// TestFleetWorkerKillAndRestart kills one worker mid-job (connections
// severed, no HTTP responses — a SIGKILL as the coordinator sees it),
// revives it later, and requires the job to finish complete and
// byte-identical anyway.
func TestFleetWorkerKillAndRestart(t *testing.T) {
	leakcheck.Check(t)
	req := pinnedRequest()
	want := directSweepSHA(t, req)

	f := startFleet(t, fixtureOpts{workers: 3})
	id := submitJob(t, f.ts, req)

	waitStatus(t, f.ts, id, func(d server.StatusDoc) bool { return d.Cells.Done >= 2 })
	f.workers[0].kill()
	waitStatus(t, f.ts, id, func(d server.StatusDoc) bool { return d.Cells.Done >= 20 })
	f.workers[0].revive()

	doc := waitResult(t, f.ts, id)
	requireEquivalent(t, doc, want)
	t.Logf("kill/restart run: cells %+v, coordinator %+v", doc.Cells, f.coord.Stats())
}

// TestFleetDeadWorkerFailover starts the sweep against a fleet whose
// first worker is already dead: every cell it owns must fail over to
// the next owner on the ring (surfacing as stolen cells), and the
// export must still be byte-identical.
func TestFleetDeadWorkerFailover(t *testing.T) {
	leakcheck.Check(t)
	req := pinnedRequest()
	want := directSweepSHA(t, req)

	f := startFleet(t, fixtureOpts{workers: 3})
	f.workers[0].kill()

	id := submitJob(t, f.ts, req)
	doc := waitResult(t, f.ts, id)
	requireEquivalent(t, doc, want)
	st := f.coord.Stats()
	if doc.Cells.Stolen == 0 || st.Failovers == 0 {
		t.Errorf("dead primary produced no failovers: cells %+v, coordinator %+v", doc.Cells, st)
	}
}

// TestFleetWorkStealingSlowCells injects deterministic slow cells
// (and transient cell errors) on the workers via a fault plan, with a
// steal deadline far below the injected stall: the coordinator must
// race slow primaries, the workers' internal retries must be replayed
// into the job's single SSE stream, and the final export must be
// byte-identical to a clean local run — faults may cost time, never
// bytes. Two seeds vary which cells stall and which error.
func TestFleetWorkStealingSlowCells(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			req := pinnedRequest()
			want := directSweepSHA(t, req)
			req.FaultPlan = &faultinject.Plan{
				Seed:          seed,
				CellSlowProb:  0.3,
				SlowDelay:     400 * time.Millisecond,
				CellErrorProb: 0.3,
			}

			f := startFleet(t, fixtureOpts{workers: 3, stealAfter: 40 * time.Millisecond, allowFaults: true})
			id := submitJob(t, f.ts, req)
			doc := waitResult(t, f.ts, id)
			requireEquivalent(t, doc, want)

			st := f.coord.Stats()
			if st.StealsLaunched == 0 {
				t.Errorf("slow cells never triggered a steal race: %+v", st)
			}
			if retried := countSSE(t, f.ts, id, "cell.retried"); retried == 0 {
				t.Error("worker retries were not replayed into the SSE stream")
			}
			t.Logf("seed %d: cells %+v, coordinator %+v", seed, doc.Cells, st)
		})
	}
}

// TestFleetCoordinatorWarmRestart proves the replication guarantee:
// after a fleet job completes, a brand-new coordinator and server
// over the same store — with every original worker replaced — answer
// the identical job entirely from the durable tier. Finished cells
// survived on the coordinator's side of the fabric, so no worker
// state was load-bearing.
func TestFleetCoordinatorWarmRestart(t *testing.T) {
	leakcheck.Check(t)
	req := pinnedRequest()
	want := directSweepSHA(t, req)
	storeDir := t.TempDir()

	f1 := startFleet(t, fixtureOpts{workers: 3, storeDir: storeDir})
	id := submitJob(t, f1.ts, req)
	requireEquivalent(t, waitResult(t, f1.ts, id), want)
	f1.srv.Drain()
	for _, w := range f1.workers {
		w.kill()
	}

	f2 := startFleet(t, fixtureOpts{workers: 2, storeDir: storeDir})
	id2 := submitJob(t, f2.ts, req)
	doc := waitResult(t, f2.ts, id2)
	requireEquivalent(t, doc, want)
	if doc.Cells.CacheStore != doc.Cells.Total || doc.Cells.Fleet != 0 {
		t.Errorf("warm restart re-dispatched cells: %+v (want all %d from cache-store)",
			doc.Cells, doc.Cells.Total)
	}
	for _, w := range f2.workers {
		if n := w.worker.Completed(); n != 0 {
			t.Errorf("worker %s ran %d cells on a warm restart", w.worker.ID(), n)
		}
	}
}

// countSSE streams the job's (closed) event log and counts events of
// one type, verifying sequence ordering along the way.
func countSSE(t *testing.T, ts *httptest.Server, id, typ string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	count, lastSeq := 0, 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "id: ") {
			var seq int
			fmt.Sscanf(line, "id: %d", &seq)
			if seq <= lastSeq {
				t.Fatalf("SSE stream out of order: id %d after %d", seq, lastSeq)
			}
			lastSeq = seq
		}
		if strings.HasPrefix(line, "event: "+typ) {
			count++
		}
	}
	return count
}

// TestFleetWorkerRejectsBadAssignments drives the worker's wire
// surface directly: oversized, malformed, tampered and policy-
// violating assignments must be refused without touching the
// simulator.
func TestFleetWorkerRejectsBadAssignments(t *testing.T) {
	leakcheck.Check(t)
	w := startWorker(t, "w0", false)

	valid := validAssignment()
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(w.ts.URL+fleet.CellsPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if got := post([]byte("{not json")); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", got)
	}
	tampered := valid
	tampered.Fingerprint = strings.Repeat("0", 32)
	if got := post(mustJSON(tampered)); got != http.StatusBadRequest {
		t.Errorf("tampered fingerprint: status %d, want 400", got)
	}
	wrongSchema := valid
	wrongSchema.SchemaVersion = fleet.WireSchemaVersion + 1
	if got := post(mustJSON(wrongSchema)); got != http.StatusBadRequest {
		t.Errorf("wrong schema version: status %d, want 400", got)
	}
	faulty := valid
	faulty.Plan = &faultinject.Plan{Seed: 1, CellErrorProb: 1}
	faulty.Fingerprint = harness.CellFingerprint(faulty.Config, faulty.Workload, faulty.Warmup, faulty.Measure)
	if got := post(mustJSON(faulty)); got != http.StatusForbidden {
		t.Errorf("fault plan on a faultless worker: status %d, want 403", got)
	}
	if got := post(bytes.Repeat([]byte("a"), fleet.MaxWireBytes+2)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}
	if n := w.worker.Completed(); n != 0 {
		t.Errorf("worker simulated %d cells off rejected assignments", n)
	}
}

// validAssignment builds a well-formed assignment for one real cell.
func validAssignment() fleet.Assignment {
	cfg := harness.PinnedBenchConfigurations()[0]
	spec := harness.PinnedBenchSpecs()[0]
	return fleet.Assignment{
		SchemaVersion: fleet.WireSchemaVersion,
		Fingerprint:   harness.CellFingerprint(cfg, spec, testWarmup, testMeasure),
		Config:        cfg,
		Workload:      spec,
		Warmup:        testWarmup,
		Measure:       testMeasure,
	}
}

// TestFleetCoordinatorRejectsLyingWorker points a coordinator at a
// fake worker that answers every assignment with a validly shaped
// result for the wrong cell. The coordinator must refuse the payload
// (failing the cell after exhausting its single peer) rather than
// record another cell's bytes — the checkpoint store stays empty.
func TestFleetCoordinatorRejectsLyingWorker(t *testing.T) {
	leakcheck.Check(t)
	liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == fleet.HealthPath {
			json.NewEncoder(rw).Encode(fleet.Health{SchemaVersion: fleet.WireSchemaVersion, WorkerID: "liar"})
			return
		}
		body, _ := io.ReadAll(r.Body)
		asg, err := fleet.DecodeAssignment(body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		res := fleet.Result{
			SchemaVersion: fleet.WireSchemaVersion,
			Fingerprint:   strings.Repeat("f", 32), // answers a different cell
			WorkerID:      "liar",
			Result:        &harness.RunResult{Config: asg.Config.Name, Workload: asg.Workload.Name},
		}
		json.NewEncoder(rw).Encode(res)
	}))
	t.Cleanup(liar.Close)

	storeDir := t.TempDir()
	store, err := harness.OpenCheckpointStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Peers: []string{liar.URL},
		Store: store,
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	asg := validAssignment()
	out := coord.Dispatch(context.Background(), server.CellSpec{
		Config:      asg.Config,
		Workload:    asg.Workload,
		Warmup:      asg.Warmup,
		Measure:     asg.Measure,
		Fingerprint: asg.Fingerprint,
	}, nil)
	if out.Err == nil {
		t.Fatal("coordinator accepted a result for the wrong fingerprint")
	}
	if n, err := store.Count(); err != nil || n != 0 {
		t.Fatalf("lying worker reached the checkpoint store: %d records, %v", n, err)
	}
}

// TestFleetResultCheck pins the wire-level cross-checks that keep a
// result bound to its assignment.
func TestFleetResultCheck(t *testing.T) {
	asg := validAssignment()
	ok := fleet.Result{
		SchemaVersion: fleet.WireSchemaVersion,
		Fingerprint:   asg.Fingerprint,
		WorkerID:      "w0",
		Result:        &harness.RunResult{Config: asg.Config.Name, Workload: asg.Workload.Name},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if err := ok.Check(asg); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}

	wrongFP := ok
	wrongFP.Fingerprint = strings.Repeat("0", 32)
	if err := wrongFP.Check(asg); err == nil {
		t.Error("result for another fingerprint passed Check")
	}
	wrongCell := ok
	wrongCell.Result = &harness.RunResult{Config: "ideal", Workload: asg.Workload.Name}
	if err := wrongCell.Check(asg); err == nil {
		t.Error("result naming another cell passed Check")
	}
	both := ok
	both.Failure = &fleet.Failure{Config: asg.Config.Name, Workload: asg.Workload.Name}
	if err := both.Validate(); err == nil {
		t.Error("result carrying both outcome arms validated")
	}
	neither := fleet.Result{SchemaVersion: fleet.WireSchemaVersion, Fingerprint: asg.Fingerprint}
	if err := neither.Validate(); err == nil {
		t.Error("result carrying no outcome validated")
	}
}
