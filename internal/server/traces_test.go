package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"entangling/internal/harness"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

// traceTestConfig is testConfig plus a trace store in a temp dir.
func traceTestConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	cfg.TraceDir = filepath.Join(t.TempDir(), "traces")
	return cfg
}

// encodeWalkerTrace materializes n instructions of a synthetic workload
// into an ENTRACE1 payload — the upload fixture.
func encodeWalkerTrace(t *testing.T, n uint64) []byte {
	t.Helper()
	p := workload.Preset(workload.Int)
	p.Name = "upload-fixture"
	p.Seed = 77
	spec := workload.Spec{Name: p.Name, Params: p}
	tr, err := workload.Materialize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := trace.NewWriter(&buf, false)
	for i := range tr.Instrs {
		if err := w.Write(&tr.Instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	return buf.Bytes()
}

// uploadTrace POSTs a payload to /v1/traces and returns status + doc.
func uploadTrace(t *testing.T, ts *httptest.Server, payload []byte, format string) (int, traceDoc) {
	t.Helper()
	path := "/v1/traces"
	if format != "" {
		path += "?format=" + format
	}
	status, body := doAs(t, ts, "", "POST", path, payload)
	var doc traceDoc
	if status == http.StatusCreated || status == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding trace doc: %v (%s)", err, body)
		}
	}
	return status, doc
}

// TestTraceUploadThenSweep is the tentpole E2E: upload a trace, sweep
// it through the job API, and check the exported metrics are
// byte-identical (by SHA) to running the same trace through
// RunSuiteCtx directly — the network path adds nothing and loses
// nothing.
func TestTraceUploadThenSweep(t *testing.T) {
	const traceInstrs = testWarmup + testMeasure + 5_000
	payload := encodeWalkerTrace(t, traceInstrs)
	cfg := traceTestConfig(t)
	_, ts := startTestServer(t, cfg)

	status, doc := uploadTrace(t, ts, payload, "")
	if status != http.StatusCreated {
		t.Fatalf("upload status %d", status)
	}
	if doc.Instructions != traceInstrs || doc.Workload != "trace:"+doc.ID {
		t.Fatalf("upload doc: %+v", doc)
	}

	// Idempotent re-upload dedupes.
	status, again := uploadTrace(t, ts, payload, "")
	if status != http.StatusOK || !again.Deduped || again.ID != doc.ID {
		t.Fatalf("re-upload: status %d doc %+v", status, again)
	}

	// Sweep the uploaded trace.
	req := JobRequest{
		Configurations: []string{"no", "entangling-2k"},
		Workloads:      []string{doc.Workload},
		Warmup:         testWarmup,
		Measure:        testMeasure,
	}
	sr := submitOK(t, ts, req)
	res, _ := waitResult(t, ts, sr.ID)
	if res.State != StateCompleted {
		t.Fatalf("job state %s", res.State)
	}

	// Direct run over the same stored content.
	store, err := trace.OpenStore(cfg.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.TraceSpec(doc.Workload, doc.ID, func() (io.ReadCloser, error) {
		return store.Open(doc.ID)
	})
	var cfgs []harness.Configuration
	for _, c := range harness.KnownConfigurations() {
		if c.Name == "no" || c.Name == "entangling-2k" {
			cfgs = append(cfgs, c)
		}
	}
	suite, err := harness.RunSuiteCtx(context.Background(), []workload.Spec{spec}, cfgs,
		harness.Options{Warmup: testWarmup, Measure: testMeasure, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, want := harness.MetricsFingerprint(suite.Metrics()); res.MetricsSHA256 != want {
		t.Fatalf("uploaded-trace sweep sha %s != direct sha %s", res.MetricsSHA256, want)
	}
}

func TestTraceUploadChampSimFormat(t *testing.T) {
	// A minimal champsim payload: 3 plain 64-byte records.
	raw := make([]byte, 3*64)
	for i, ip := range []uint64{0x1000, 0x1004, 0x1008} {
		for b := 0; b < 8; b++ {
			raw[i*64+b] = byte(ip >> (8 * b))
		}
	}
	_, ts := startTestServer(t, traceTestConfig(t))
	status, doc := uploadTrace(t, ts, raw, "champsim")
	if status != http.StatusCreated || doc.Instructions != 3 || doc.Format != "champsim" {
		t.Fatalf("champsim upload: status %d doc %+v", status, doc)
	}
}

func TestTraceUploadRejections(t *testing.T) {
	cfg := traceTestConfig(t)
	cfg.MaxTraceBytes = 1 << 20
	cfg.Budget.MaxTraceInstrs = 10_000
	_, ts := startTestServer(t, cfg)

	// Malformed: not a trace at all.
	if status, _ := uploadTrace(t, ts, []byte("definitely not a trace"), ""); status != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d, want 400", status)
	}
	// Malformed: valid header, zero-size record.
	bad := append([]byte("ENTRACE1\x00\x00\x00\x00"), 0x40, 0x00, 0x00)
	if status, _ := uploadTrace(t, ts, bad, ""); status != http.StatusBadRequest {
		t.Errorf("zero-size record upload: status %d, want 400", status)
	}
	// Unknown format parameter.
	if status, _ := uploadTrace(t, ts, []byte("x"), "elf"); status != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", status)
	}
	// Over the instruction budget: 413 naming the limit.
	big := encodeWalkerTrace(t, 10_001)
	status, body := doAs(t, ts, "", "POST", "/v1/traces", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget upload: status %d, want 413 (%s)", status, body)
	}
	if !bytes.Contains(body, []byte("instruction limit of 10000")) {
		t.Errorf("413 body does not name the offending limit: %s", body)
	}
	// Nothing entered the store.
	store, _ := trace.OpenStore(cfg.TraceDir)
	if infos, _ := store.List(); len(infos) != 0 {
		t.Errorf("rejected uploads left %d traces in the store", len(infos))
	}
}

func TestTraceUploadBodyCap(t *testing.T) {
	cfg := traceTestConfig(t)
	cfg.MaxTraceBytes = 4 << 10
	_, ts := startTestServer(t, cfg)
	big := encodeWalkerTrace(t, 50_000) // well past 4 KiB on the wire
	status, _ := uploadTrace(t, ts, big, "")
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
}

func TestTraceEndpointsWithoutStore(t *testing.T) {
	_, ts := startTestServer(t, testConfig()) // no TraceDir
	if status, _ := uploadTrace(t, ts, []byte("x"), ""); status != http.StatusServiceUnavailable {
		t.Errorf("upload without store: status %d, want 503", status)
	}
	req := JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"trace:" + string(bytes.Repeat([]byte("a"), 64))},
		Warmup:         100, Measure: 100,
	}
	status, body := postJob(t, ts, req)
	if status != http.StatusBadRequest {
		t.Errorf("trace job without store: status %d (%s)", status, body)
	}
}

func TestTraceListAndStat(t *testing.T) {
	_, ts := startTestServer(t, traceTestConfig(t))
	payload := encodeWalkerTrace(t, 1_000)
	_, doc := uploadTrace(t, ts, payload, "")

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []traceDoc `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Traces) != 1 || list.Traces[0].ID != doc.ID {
		t.Fatalf("list: %+v err=%v", list, err)
	}

	resp, err = http.Get(ts.URL + "/v1/traces/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got traceDoc
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.ID != doc.ID || got.Instructions != 1_000 {
		t.Fatalf("stat: %+v", got)
	}

	if status, _ := doAs(t, ts, "", "GET", "/v1/traces/"+string(bytes.Repeat([]byte("f"), 64)), nil); status != http.StatusNotFound {
		t.Errorf("unknown trace stat: status %d, want 404", status)
	}
}

// TestTraceStoreFailureIsInternal: a trace the store fails to read
// (its sidecar path is a directory, so reading it fails with EISDIR)
// is a server fault — 500 internal on stat and on submission — not an
// unknown trace.
func TestTraceStoreFailureIsInternal(t *testing.T) {
	cfg := traceTestConfig(t)
	_, ts := startTestServer(t, cfg)
	id := string(bytes.Repeat([]byte("a"), 64))
	if err := os.Mkdir(filepath.Join(cfg.TraceDir, id+".json"), 0o755); err != nil {
		t.Fatal(err)
	}

	status, body := doAs(t, ts, "", "GET", "/v1/traces/"+id, nil)
	if status != http.StatusInternalServerError || reasonOf(t, body) != ReasonInternal {
		t.Errorf("stat of an unreadable trace: status %d (%s), want 500 %s", status, body, ReasonInternal)
	}
	status, body = postJob(t, ts, JobRequest{Configurations: []string{"no"}, Workloads: []string{"trace:" + id}, Warmup: 100, Measure: 100})
	if status != http.StatusInternalServerError || reasonOf(t, body) != ReasonInternal {
		t.Errorf("job on an unreadable trace: status %d (%s), want 500 %s", status, body, ReasonInternal)
	}
}

func TestTraceJobValidation(t *testing.T) {
	_, ts := startTestServer(t, traceTestConfig(t))
	payload := encodeWalkerTrace(t, 5_000)
	_, doc := uploadTrace(t, ts, payload, "")

	// Unknown trace ID.
	req := JobRequest{
		Configurations: []string{"no"},
		Workloads:      []string{"trace:" + string(bytes.Repeat([]byte("0"), 64))},
		Warmup:         100, Measure: 100,
	}
	if status, body := postJob(t, ts, req); status != http.StatusBadRequest ||
		!bytes.Contains(body, []byte("upload it via POST /v1/traces")) {
		t.Errorf("unknown trace job: status %d (%s)", status, body)
	}

	// Window longer than the stored trace.
	req.Workloads = []string{doc.Workload}
	req.Warmup, req.Measure = 4_000, 2_000
	if status, body := postJob(t, ts, req); status != http.StatusBadRequest ||
		!bytes.Contains(body, []byte("exceeds the trace's")) {
		t.Errorf("over-length window: status %d (%s)", status, body)
	}

	// A window that fits is accepted.
	req.Warmup, req.Measure = 2_000, 1_000
	sr := submitOK(t, ts, req)
	res, _ := waitResult(t, ts, sr.ID)
	if res.State != StateCompleted {
		t.Errorf("fitting window failed: %+v", res)
	}
}

// TestTraceMetricsCounters checks /metrics exports the ingest counters.
func TestTraceMetricsCounters(t *testing.T) {
	_, ts := startTestServer(t, traceTestConfig(t))
	payload := encodeWalkerTrace(t, 500)
	uploadTrace(t, ts, payload, "")
	uploadTrace(t, ts, payload, "")                // dedupe
	uploadTrace(t, ts, []byte("garbage-here"), "") // reject

	_, body := doAs(t, ts, "", "GET", "/metrics", nil)
	for _, want := range []string{
		"entangling_traces_uploaded_total 1",
		"entangling_traces_deduped_total 1",
		"entangling_traces_rejected_total 1",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
