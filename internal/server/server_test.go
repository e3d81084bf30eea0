package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entangling/internal/faultinject"
	"entangling/internal/harness"
	"entangling/internal/leakcheck"
	"entangling/internal/stats"
	"entangling/internal/workload"
)

// Small windows keep every test cell in the low-millisecond range.
const (
	testWarmup  = 20_000
	testMeasure = 10_000
)

func testConfig() Config {
	return Config{
		Workers:         1,
		CellParallelism: 2,
		QueueCapacity:   4,
		PerCategory:     1,
		DrainGrace:      2 * time.Second,
	}
}

// startTestServer builds a Server, starts its workers, and serves its
// Handler over httptest. Cleanup drains the server before closing the
// listener so no worker outlives the test, and leakcheck holds the
// drain to that claim: the goroutine count must return to its
// pre-server baseline (stuck flights, abandoned SSE followers and
// undrained workers all fail the test with a stack dump).
func startTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return startHookedTestServer(t, cfg, nil)
}

// startHookedTestServer is startTestServer with hook installed as the
// CellHook of every cell the server simulates. It is the only way to
// inject faults into the server: no job request can carry them.
func startHookedTestServer(t *testing.T, cfg Config, hook func(config, workload string) error) (*Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Set before Start, so no worker can observe the write.
	s.resolver.base.CellHook = hook
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
	})
	return s, ts
}

// faultHook injects plan's faults into the cells of the named
// workloads and leaves every other cell clean, so one server can run
// both kinds of job.
func faultHook(plan faultinject.Plan, workloads ...string) func(config, workload string) error {
	inj := faultinject.New(plan)
	return func(config, workload string) error {
		if !slices.Contains(workloads, workload) {
			return nil
		}
		return inj.CellHook(config, workload)
	}
}

// postJob submits a request and returns the HTTP status and body.
func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return doAs(t, ts, "", "POST", "/v1/jobs", b)
}

// submitOK submits a request that must be admitted (202) or deduped
// (200) and returns the decoded response.
func submitOK(t *testing.T, ts *httptest.Server, req JobRequest) submitResponse {
	t.Helper()
	return submitAs(t, ts, "", req)
}

// waitStatus polls GET /v1/jobs/{id} until pred holds.
func waitStatus(t *testing.T, ts *httptest.Server, id string, pred func(StatusDoc) bool) StatusDoc {
	t.Helper()
	return waitStatusAs(t, ts, "", id, pred)
}

// waitResult polls GET /v1/jobs/{id}/result until the job is terminal
// and returns the decoded document plus its raw bytes.
func waitResult(t *testing.T, ts *httptest.Server, id string) (ResultDoc, []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
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
			var doc ResultDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("decoding result: %v (%s)", err, body)
			}
			return doc, body
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("GET result: status %d, body %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("202 result response missing Retry-After")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never produced a result", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readSSE streams /events until the server closes the stream and
// returns the decoded events. Every SSE id must match the embedded
// sequence number and the declared event type.
func readSSE(t *testing.T, ts *httptest.Server, id, lastEventID string) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatalf("building SSE request: %v", err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}

	var events []Event
	var seq int
	var typ string
	var data []byte
	flush := func() {
		if typ == "" && data == nil {
			return
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			t.Fatalf("decoding SSE data %q: %v", data, err)
		}
		if ev.Seq != seq {
			t.Fatalf("SSE id %d != data seq %d", seq, ev.Seq)
		}
		if ev.Type != typ {
			t.Fatalf("SSE event %q != data type %q", typ, ev.Type)
		}
		events = append(events, ev)
		seq, typ, data = 0, "", nil
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "id: "):
			seq, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	flush()
	return events
}

// directSweepSHA runs the same cells through harness.RunSuiteCtx
// locally and returns harness.MetricsFingerprint of the export, so the
// test proves API results are byte-comparable with a direct run.
func directSweepSHA(t *testing.T, cfgNames, wlNames []string) string {
	t.Helper()
	byName := make(map[string]harness.Configuration)
	for _, c := range harness.KnownConfigurations() {
		byName[c.Name] = c
	}
	var cfgs []harness.Configuration
	for _, n := range cfgNames {
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
	for _, n := range wlNames {
		s, ok := specByName[n]
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		specs = append(specs, s)
	}
	suite, err := harness.RunSuiteCtx(context.Background(), specs, cfgs,
		harness.Options{Warmup: testWarmup, Measure: testMeasure, Parallelism: 2})
	if err != nil {
		t.Fatalf("direct RunSuiteCtx: %v", err)
	}
	_, sha := harness.MetricsFingerprint(suite.Metrics())
	return sha
}

func TestServerEndToEnd(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	req := JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}
	sr := submitOK(t, ts, req)
	if sr.ID == "" || sr.Cells != 2 {
		t.Fatalf("submit response: %+v", sr)
	}
	if sr.Events != "/v1/jobs/"+sr.ID+"/events" || sr.Result != "/v1/jobs/"+sr.ID+"/result" {
		t.Fatalf("resource links wrong: %+v", sr)
	}

	events := readSSE(t, ts, sr.ID, "")
	if len(events) < 2+2*2+1 {
		t.Fatalf("expected at least 7 events, got %d: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d; want strictly increasing from 1", i, ev.Seq)
		}
	}
	if events[0].Type != EventJobQueued || events[1].Type != EventJobStarted {
		t.Fatalf("stream must open with job.queued, job.started; got %q, %q",
			events[0].Type, events[1].Type)
	}
	last := events[len(events)-1]
	if last.Type != EventJobDone || last.State != StateCompleted || last.Done != 2 || last.Total != 2 {
		t.Fatalf("terminal event: %+v", last)
	}
	// Every cell's started event precedes its finished event.
	started := make(map[string]int)
	finished := make(map[string]int)
	for i, ev := range events {
		cell := ev.Config + "/" + ev.Workload
		switch ev.Type {
		case EventCellStarted:
			started[cell] = i
		case EventCellFinished:
			finished[cell] = i
		}
	}
	for _, cell := range []string{"no/crypto-00", "nextline/crypto-00"} {
		si, sok := started[cell]
		fi, fok := finished[cell]
		if !sok || !fok || si >= fi {
			t.Fatalf("cell %s events out of order (started@%d ok=%v, finished@%d ok=%v)",
				cell, si, sok, fi, fok)
		}
	}

	// Last-Event-ID resumes mid-stream without replaying history.
	cursor := len(events) - 2
	tail := readSSE(t, ts, sr.ID, strconv.Itoa(cursor))
	if len(tail) != 2 || tail[0].Seq != cursor+1 {
		t.Fatalf("Last-Event-ID resume returned %+v", tail)
	}

	doc, _ := waitResult(t, ts, sr.ID)
	if doc.State != StateCompleted || doc.Cells.Done != 2 || doc.Cells.Failed != 0 {
		t.Fatalf("result: %+v", doc)
	}
	if doc.Cells.Simulated != 2 {
		t.Fatalf("expected 2 simulated cells, got %+v", doc.Cells)
	}
	var metrics harness.SuiteMetrics
	if err := json.Unmarshal(doc.Metrics, &metrics); err != nil {
		t.Fatalf("result metrics do not parse: %v", err)
	}
	if want := directSweepSHA(t, req.Configurations, req.Workloads); doc.MetricsSHA256 != want {
		t.Fatalf("metrics sha %s != direct RunSuiteCtx sha %s", doc.MetricsSHA256, want)
	}
}

// TestServerDedupeKeepsJobRemembered: a submission deduped onto a
// remembered job makes it the newest, so the next submission prunes an
// older job instead and the deduping client can still read its result.
func TestServerDedupeKeepsJobRemembered(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 2
	_, ts := startTestServer(t, cfg)
	job := func(wl string) JobRequest {
		return JobRequest{Configurations: []string{"no"}, Workloads: []string{wl}, Warmup: testWarmup, Measure: testMeasure}
	}
	a := submitOK(t, ts, job("crypto-00"))
	waitResult(t, ts, a.ID)
	b := submitOK(t, ts, job("int-00"))
	waitResult(t, ts, b.ID)
	if again := submitOK(t, ts, job("crypto-00")); again.ID != a.ID || !again.Deduped {
		t.Fatalf("resubmission of A: %+v, want a dedupe onto %s", again, a.ID)
	}
	c := submitOK(t, ts, job("fp-00"))
	waitResult(t, ts, c.ID)

	if status, _ := doAs(t, ts, "", "GET", "/v1/jobs/"+a.ID+"/result", nil); status != http.StatusOK {
		t.Fatalf("GET result of the deduped job: status %d, want 200", status)
	}
}

// TestServerJobIDPinned pins one exact job's content address: job IDs
// are client-visible dedupe keys and must not drift.
func TestServerJobIDPinned(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	sr := submitOK(t, ts, JobRequest{
		Configurations: []string{"no", "entangling-2k"},
		Workloads:      []string{"int-00"},
		Warmup:         20000,
		Measure:        10000,
	})
	if want := "fbc44cc4cb40d171"; sr.ID != want {
		t.Fatalf("job ID %s, want %s", sr.ID, want)
	}
}

func TestServerDuplicateSubmissionsSimulateOnce(t *testing.T) {
	s, ts := startTestServer(t, testConfig())
	req := JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"int-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}

	type reply struct {
		status int
		sr     submitResponse
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJob(t, ts, req)
			var sr submitResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Errorf("decoding submit response: %v (%s)", err, body)
				return
			}
			replies[i] = reply{status, sr}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if replies[0].sr.ID != replies[1].sr.ID {
		t.Fatalf("concurrent submissions got different IDs: %q vs %q",
			replies[0].sr.ID, replies[1].sr.ID)
	}
	statuses := []int{replies[0].status, replies[1].status}
	if !((statuses[0] == 202 && statuses[1] == 200) || (statuses[0] == 200 && statuses[1] == 202)) {
		t.Fatalf("expected one 202 and one 200, got %v", statuses)
	}
	for _, r := range replies {
		if (r.status == 200) != r.sr.Deduped {
			t.Fatalf("deduped flag inconsistent with status: %+v", r)
		}
	}
	if got := atomic.LoadUint64(&s.stats.jobsSubmitted); got != 1 {
		t.Fatalf("jobsSubmitted = %d, want 1", got)
	}
	if got := atomic.LoadUint64(&s.stats.jobsDeduped); got != 1 {
		t.Fatalf("jobsDeduped = %d, want 1", got)
	}

	_, body1 := waitResult(t, ts, replies[0].sr.ID)
	_, body2 := waitResult(t, ts, replies[1].sr.ID)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("duplicate submissions returned different result bytes")
	}
	// The sweep has 2 cells and must have simulated exactly once each.
	if got := atomic.LoadUint64(&s.stats.cellsSimulated); got != 2 {
		t.Fatalf("cellsSimulated = %d, want 2 (one per cell)", got)
	}

	// A repeat submission after completion dedupes onto the finished
	// job and serves the identical bytes immediately.
	status, body := postJob(t, ts, req)
	var sr submitResponse
	if err := json.Unmarshal(body, &sr); err != nil || status != http.StatusOK || !sr.Deduped {
		t.Fatalf("post-completion resubmit: status %d, err %v, %+v", status, err, sr)
	}
	_, body3 := waitResult(t, ts, sr.ID)
	if !bytes.Equal(body1, body3) {
		t.Fatalf("post-completion resubmit returned different result bytes")
	}
	if got := atomic.LoadUint64(&s.stats.cellsSimulated); got != 2 {
		t.Fatalf("resubmission re-simulated: cellsSimulated = %d", got)
	}
}

func TestServerCellCacheAcrossJobs(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	first := submitOK(t, ts, JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"fp-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	})
	doc, _ := waitResult(t, ts, first.ID)
	if doc.Cells.Simulated != 1 {
		t.Fatalf("first job: %+v", doc.Cells)
	}

	// A different job sharing one cell gets it from the in-process
	// cache and only simulates the new cell.
	second := submitOK(t, ts, JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"fp-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	})
	if second.ID == first.ID {
		t.Fatalf("distinct sweeps must have distinct job IDs")
	}
	doc2, _ := waitResult(t, ts, second.ID)
	if doc2.Cells.CacheMemory != 1 || doc2.Cells.Simulated != 1 {
		t.Fatalf("second job should hit memory cache for the shared cell: %+v", doc2.Cells)
	}
}

// TestServerQueueFull429: a full queue rejects with 429 and
// Retry-After, and the rejected submission neither leaves a
// half-registered job behind nor prunes an older finished one.
func TestServerQueueFull429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCapacity = 1
	cfg.MaxJobs = 3
	// Every srv-00 cell stalls; int-00 runs clean.
	slow := faultinject.Plan{Seed: 1, CellSlowProb: 1, SlowDelay: 800 * time.Millisecond}
	s, ts := startHookedTestServer(t, cfg, faultHook(slow, "srv-00"))

	d := submitOK(t, ts, JobRequest{Configurations: []string{"no"}, Workloads: []string{"int-00"}, Warmup: testWarmup, Measure: testMeasure})
	waitResult(t, ts, d.ID)

	mkReq := func(measure uint64) JobRequest {
		return JobRequest{
			Configurations: []string{"no"},
			Workloads:      []string{"srv-00"},
			Warmup:         testWarmup,
			Measure:        measure,
		}
	}

	// Job 1 occupies the single worker; wait until it is off the queue.
	j1 := submitOK(t, ts, mkReq(testMeasure))
	waitStatus(t, ts, j1.ID, func(d StatusDoc) bool { return d.State != StateQueued })
	// Job 2 fills the one queue slot.
	j2 := submitOK(t, ts, mkReq(testMeasure+1))

	// Job 3 must be rejected with 429 and a Retry-After hint.
	b, _ := json.Marshal(mkReq(testMeasure + 2))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 must carry a positive Retry-After, got %q", resp.Header.Get("Retry-After"))
	}
	if got := atomic.LoadUint64(&s.stats.jobsRejected); got != 1 {
		t.Fatalf("jobsRejected = %d, want 1", got)
	}
	waitResult(t, ts, d.ID) // still remembered: fails on 404

	// Once the backlog clears the same request is admitted fresh — the
	// rejected submission left no half-registered job behind.
	waitResult(t, ts, j1.ID)
	waitResult(t, ts, j2.ID)
	j3 := submitOK(t, ts, mkReq(testMeasure+2))
	doc, _ := waitResult(t, ts, j3.ID)
	if doc.State != StateCompleted {
		t.Fatalf("retried submission: %+v", doc)
	}
}

func TestServerCancelMidJob(t *testing.T) {
	cfg := testConfig()
	cfg.CellParallelism = 1
	slow := faultinject.Plan{Seed: 1, CellSlowProb: 1, SlowDelay: 800 * time.Millisecond}
	s, ts := startHookedTestServer(t, cfg, faultHook(slow, "crypto-00", "int-00"))

	sr := submitOK(t, ts, JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"crypto-00", "int-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	})
	waitStatus(t, ts, sr.ID, func(d StatusDoc) bool { return d.State == StateRunning })

	if status, _ := doAs(t, ts, "", "DELETE", "/v1/jobs/"+sr.ID, nil); status != http.StatusOK {
		t.Fatalf("DELETE status %d", status)
	}

	doc, _ := waitResult(t, ts, sr.ID)
	if doc.State != StateCanceled {
		t.Fatalf("canceled job ended %q: %+v", doc.State, doc)
	}
	for _, f := range doc.FailedCells {
		if !f.Canceled {
			t.Fatalf("cell failure after cancel should be typed canceled: %+v", f)
		}
	}
	if got := atomic.LoadUint64(&s.stats.jobsCanceled); got != 1 {
		t.Fatalf("jobsCanceled = %d, want 1", got)
	}
}

// TestServerJobBuildsEachTraceOnce: a job materializes each of its
// workloads' traces exactly once, however many cells run at a time,
// and leaves none resident when it ends.
func TestServerJobBuildsEachTraceOnce(t *testing.T) {
	var cfgs []string
	for _, c := range harness.PinnedBenchConfigurations() {
		cfgs = append(cfgs, c.Name)
	}
	var wls []string
	for _, sp := range harness.PinnedBenchSpecs() {
		wls = append(wls, sp.Name)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("cell-parallelism-%d", par), func(t *testing.T) {
			cfg := testConfig()
			cfg.CellParallelism = par
			s, ts := startTestServer(t, cfg)
			sr := submitOK(t, ts, JobRequest{
				Configurations: cfgs, Workloads: wls,
				Warmup: testWarmup, Measure: testMeasure,
			})
			if doc, _ := waitResult(t, ts, sr.ID); doc.State != StateCompleted {
				t.Fatalf("job ended %q", doc.State)
			}
			if builds, _, resident := s.traces.CacheStats(); builds != uint64(len(wls)) || resident != 0 {
				t.Errorf("%d x %d job: builds=%d resident=%d, want %d and 0",
					len(cfgs), len(wls), builds, resident, len(wls))
			}
		})
	}
}

// TestServerCanceledJobReleasesTraces: canceling a job mid-run drops
// every trace use it reserved.
func TestServerCanceledJobReleasesTraces(t *testing.T) {
	cfg := testConfig()
	cfg.CellParallelism = 1
	slow := faultinject.Plan{Seed: 1, CellSlowProb: 1, SlowDelay: 300 * time.Millisecond}
	s, ts := startHookedTestServer(t, cfg, faultHook(slow, "crypto-00", "int-00"))

	sr := submitOK(t, ts, JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"crypto-00", "int-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	})
	waitStatus(t, ts, sr.ID, func(d StatusDoc) bool { return d.State == StateRunning })
	if status, _ := doAs(t, ts, "", "DELETE", "/v1/jobs/"+sr.ID, nil); status != http.StatusOK {
		t.Fatalf("DELETE status %d", status)
	}
	if doc, _ := waitResult(t, ts, sr.ID); doc.State != StateCanceled {
		t.Fatalf("canceled job ended %q", doc.State)
	}
	// The abandoned flight finishes its stall on its own; once it has,
	// nothing may be resident.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, resident := s.traces.CacheStats()
		if resident == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d traces still resident after the canceled job", resident)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerFaultPlanDegradedResult: injected errors degrade a job to
// typed per-cell failures, and resubmitting the degraded job runs it
// again instead of deduping onto it — the surviving cells come back
// from the result cache, the injected ones fail again.
func TestServerFaultPlanDegradedResult(t *testing.T) {
	// Pick a seed whose deterministic error rolls fail some — but not
	// all — of the sweep's cells, using the same (seed, kind, site)
	// hash faultinject evaluates.
	cfgNames := []string{"no", "nextline"}
	wlNames := []string{"crypto-00", "int-00"}
	const prob = 0.5
	var seed uint64
	wantFailed := 0
	for cand := uint64(1); cand < 1000; cand++ {
		n := 0
		for _, c := range cfgNames {
			for _, w := range wlNames {
				if stats.UnitFloat(stats.Hash64(cand, "error", c+"/"+w)) < prob {
					n++
				}
			}
		}
		if n > 0 && n < len(cfgNames)*len(wlNames) {
			seed, wantFailed = cand, n
			break
		}
	}
	if seed == 0 {
		t.Fatalf("no seed yields a mixed outcome")
	}
	s, ts := startHookedTestServer(t, testConfig(),
		faultHook(faultinject.Plan{Seed: seed, CellErrorProb: prob}, wlNames...))

	req := JobRequest{
		Configurations: cfgNames,
		Workloads:      wlNames,
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}
	sr := submitOK(t, ts, req)
	doc, _ := waitResult(t, ts, sr.ID)
	if doc.State != StateDegraded {
		t.Fatalf("expected degraded, got %q: %+v", doc.State, doc)
	}
	if doc.Cells.Failed != wantFailed || len(doc.FailedCells) != wantFailed {
		t.Fatalf("failed cells = %d (%d typed), want %d", doc.Cells.Failed, len(doc.FailedCells), wantFailed)
	}
	for _, f := range doc.FailedCells {
		if f.Canceled || !strings.Contains(f.Error, "injected error") {
			t.Fatalf("typed failure malformed: %+v", f)
		}
	}
	// The surviving cells still export parseable metrics.
	var metrics harness.SuiteMetrics
	if err := json.Unmarshal(doc.Metrics, &metrics); err != nil {
		t.Fatalf("degraded metrics do not parse: %v", err)
	}
	if doc.MetricsSHA256 == "" {
		t.Fatalf("degraded result missing metrics fingerprint")
	}

	status, body := postJob(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("resubmitting a degraded job: status %d, want 202 (%s)", status, body)
	}
	var again submitResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.ID != sr.ID {
		t.Fatalf("resubmission must re-run the same job ID, got %+v", again)
	}
	doc2, _ := waitResult(t, ts, again.ID)
	survivors := len(cfgNames)*len(wlNames) - wantFailed
	if doc2.State != StateDegraded || doc2.Cells.Failed != wantFailed ||
		doc2.Cells.CacheMemory != survivors || doc2.Cells.Simulated != 0 {
		t.Fatalf("re-run: state %q cells %+v, want %d failed and %d from cache_memory",
			doc2.State, doc2.Cells, wantFailed, survivors)
	}
	failedBefore := make(map[string]string)
	for _, f := range doc.FailedCells {
		failedBefore[f.Config+"/"+f.Workload] = f.Error
	}
	for _, f := range doc2.FailedCells {
		if want, ok := failedBefore[f.Config+"/"+f.Workload]; !ok || f.Error != want {
			t.Fatalf("re-run failure %+v, want one of the first run's %+v", f, doc.FailedCells)
		}
	}
	if got := atomic.LoadUint64(&s.stats.jobsSubmitted); got != 2 {
		t.Errorf("jobsSubmitted = %d, want 2", got)
	}
	if got := atomic.LoadUint64(&s.stats.jobsDeduped); got != 0 {
		t.Errorf("jobsDeduped = %d, want 0", got)
	}
}

func TestServerWarmRestartServesFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}

	cfg := testConfig()
	cfg.CheckpointDir = dir
	s1, ts1 := startTestServer(t, cfg)
	sr := submitOK(t, ts1, req)
	doc1, _ := waitResult(t, ts1, sr.ID)
	if doc1.Cells.Simulated != 2 {
		t.Fatalf("first run: %+v", doc1.Cells)
	}

	// Draining stops admission: submissions and health checks both 503.
	s1.Drain()
	status, _ := postJob(t, ts1, req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", status)
	}
	hresp, err := http.Get(ts1.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", hresp.StatusCode)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("drained store left temp files: %v", tmps)
	}

	// A fresh server over the same store answers the repeat job with
	// zero re-simulation: every cell restores from the durable tier.
	s2, ts2 := startTestServer(t, cfg)
	sr2 := submitOK(t, ts2, req)
	if sr2.ID != sr.ID {
		t.Fatalf("same request produced different job IDs across restarts: %q vs %q", sr.ID, sr2.ID)
	}
	doc2, _ := waitResult(t, ts2, sr2.ID)
	if doc2.State != StateCompleted || doc2.Cells.CacheStore != 2 || doc2.Cells.Simulated != 0 {
		t.Fatalf("warm restart should serve entirely from the store: %+v", doc2.Cells)
	}
	if got := atomic.LoadUint64(&s2.stats.cellsSimulated); got != 0 {
		t.Fatalf("restarted server simulated %d cells", got)
	}
	if doc2.MetricsSHA256 != doc1.MetricsSHA256 {
		t.Fatalf("restart changed the metrics fingerprint: %s vs %s",
			doc2.MetricsSHA256, doc1.MetricsSHA256)
	}
}

func TestServerRequestValidation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCells = 4
	cfg.MaxBodyBytes = 512
	_, ts := startTestServer(t, cfg)

	good := JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}
	post := func(body []byte) (int, []byte) { return doAs(t, ts, "", "POST", "/v1/jobs", body) }
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}

	cases := []struct {
		name string
		body []byte
		want int
		// names, when set, must appear in the error body.
		names string
	}{
		{"unknown configuration", mustJSON(JobRequest{Configurations: []string{"bogus"}, Workloads: good.Workloads, Measure: testMeasure}), 400, ""},
		{"empty workloads", mustJSON(JobRequest{Configurations: good.Configurations, Measure: testMeasure}), 400, ""},
		{"zero measure", mustJSON(JobRequest{Configurations: good.Configurations, Workloads: good.Workloads}), 400, ""},
		{"duplicate workload", mustJSON(JobRequest{Configurations: good.Configurations, Workloads: []string{"crypto-00", "crypto-00"}, Measure: testMeasure}), 400, ""},
		{"too many cells", mustJSON(JobRequest{Configurations: []string{"no", "nextline", "ideal"}, Workloads: []string{"crypto-00", "int-00"}, Measure: testMeasure}), 400, ""},
		{"unknown field", []byte(`{"configurations":["no"],"workloads":["crypto-00"],"measure":10000,"surprise":1}`), 400, ""},
		{"trailing data", []byte(`{"configurations":["no"],"workloads":["crypto-00"],"measure":10000}{}`), 400, ""},
		{"fault plan", []byte(`{"configurations":["no"],"workloads":["crypto-00"],"measure":10000,"fault_plan":{"seed":1,"cell_error_prob":1}}`), 400, "fault_plan"},
		{"not json", []byte("entangle me"), 400, ""},
		{"oversized body", mustJSON(JobRequest{Configurations: good.Configurations,
			Workloads: []string{strings.Repeat("w", 600)}, Measure: testMeasure}), 413, ""},
	}
	for _, tc := range cases {
		status, body := post(tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		if tc.names != "" && (!strings.Contains(string(body), tc.names) || !strings.Contains(string(body), ReasonBadRequest)) {
			t.Errorf("%s: error body %s does not name %q with reason %s", tc.name, body, tc.names, ReasonBadRequest)
		}
	}

	// Unknown job IDs are 404 on every job resource.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/result"} {
		if status, _ := doAs(t, ts, "", "GET", path, nil); status != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, status)
		}
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	s, ts := startTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	sr := submitOK(t, ts, JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"srv-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	})
	waitResult(t, ts, sr.ID)

	text := getMetrics(t, ts)
	for _, want := range []string{
		"entangling_jobs_submitted_total 1",
		"entangling_jobs_completed_total 1",
		"entangling_cells_simulated_total 1",
		"# TYPE entangling_trace_resident gauge",
		"entangling_trace_resident_bytes 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}

	// A resident trace shows up as the bytes of its packed stream.
	tr, err := s.traces.Pin(workload.CVPSuite(1)[0], 10_000)
	if err != nil {
		t.Fatal(err)
	}
	text = getMetrics(t, ts)
	for _, want := range []string{
		"entangling_trace_resident 1\n",
		fmt.Sprintf("entangling_trace_resident_bytes %d\n", tr.Packed.Bytes()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// getMetrics returns the /metrics exposition text.
func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type: %q", ct)
	}
	return string(body)
}

func TestServerRunDrainsOnContextCancel(t *testing.T) {
	cfg := testConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	// Wait for the listener, run one job end to end over real TCP.
	var base string
	for deadline := time.Now().Add(5 * time.Second); ; {
		if a := s.Addr(); a != "" {
			base = "http://" + a
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never started listening")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b, _ := json.Marshal(JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"crypto-00"},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	for {
		r, err := http.Get(base + "/v1/jobs/" + sr.ID + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		code := r.StatusCode
		r.Body.Close()
		if code == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Context cancellation (what SIGTERM triggers in the command) must
	// produce a clean nil-error drain.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v after cancel; want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return after context cancel")
	}
}
