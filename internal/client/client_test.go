package client

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"entangling/internal/leakcheck"
	"entangling/internal/server"
)

// This file is the client's battery. The centerpiece is the severed-stream
// resume test: an in-process flaky proxy truncates every SSE response
// after a couple of frames, and the client must still deliver the
// exact ordered, gapless, duplicate-free event sequence an
// uninterrupted stream yields — plus a byte-identical result document.

// startNode boots a real in-process server node behind httptest.
func startNode(t *testing.T) *httptest.Server {
	t.Helper()
	leakcheck.Check(t)
	s, err := server.New(server.Config{
		Workers:         1,
		CellParallelism: 2,
		QueueCapacity:   4,
		PerCategory:     1,
		DrainGrace:      2 * time.Second,
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

// virtualClock returns a sleep func that records requested delays without
// actually waiting, so backoff schedules run instantly.
func virtualClock() (func(context.Context, time.Duration) error, *[]time.Duration) {
	var slept []time.Duration
	return func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		slept = append(slept, d)
		return nil
	}, &slept
}

func newTestClient(t *testing.T, baseURL string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{BaseURL: baseURL}
	cfg.sleep, _ = virtualClock()
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	return c
}

// waitResult polls Result until the job is terminal and returns its
// document with the raw bytes.
func waitResult(t *testing.T, c *Client, id string) (server.ResultDoc, []byte) {
	t.Helper()
	for {
		doc, raw, done, err := c.Result(context.Background(), id)
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		if done {
			return doc, raw
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func testJob() server.JobRequest {
	return server.JobRequest{
		Configurations: []string{"no", "nextline"},
		Workloads:      []string{"crypto-00"},
		Warmup:         20_000,
		Measure:        10_000,
	}
}

// flakyProxy forwards requests to a backend verbatim, except that SSE
// responses are severed (connection aborted mid-body) after cutAfter
// frames — the shape of a proxy idle-timeout or a node restart.
type flakyProxy struct {
	backend  string
	cutAfter int
	cuts     atomic.Int32
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		io.Copy(w, resp.Body)
		return
	}
	fl, _ := w.(http.Flusher)
	br := bufio.NewReader(resp.Body)
	frames := 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			w.Write(line)
			if fl != nil {
				fl.Flush()
			}
			if string(line) == "\n" {
				if frames++; frames >= p.cutAfter {
					p.cuts.Add(1)
					panic(http.ErrAbortHandler) // sever the TCP stream mid-response
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// TestEventsResumeAfterSeveredStream: with every SSE connection cut
// after two frames, Events still delivers the exact sequence an
// uninterrupted stream yields, and the result document is
// byte-identical — the client's resume is invisible to the caller.
func TestEventsResumeAfterSeveredStream(t *testing.T) {
	node := startNode(t)
	proxy := &flakyProxy{backend: node.URL, cutAfter: 2}
	front := httptest.NewServer(proxy)
	defer front.Close()

	direct := newTestClient(t, node.URL, nil)
	// The job's 7 events cost 3 reconnects, within maxRetries.
	flaky := newTestClient(t, front.URL, nil)

	ctx := context.Background()
	sub, err := direct.Submit(ctx, testJob())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Finish the job first so both streams replay the same complete,
	// immutable event log — the comparison is then exact, not racy.
	wantDoc, wantRaw := waitResult(t, direct, sub.ID)
	if wantDoc.State != server.StateCompleted {
		t.Fatalf("job state %q, want completed", wantDoc.State)
	}

	collect := func(c *Client) []server.Event {
		var evs []server.Event
		if err := c.Events(ctx, sub.ID, func(ev server.Event) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			t.Fatalf("events: %v", err)
		}
		return evs
	}
	want := collect(direct)
	got := collect(flaky)

	if proxy.cuts.Load() == 0 {
		t.Fatalf("the proxy never severed a stream; the resume path was not exercised")
	}
	if len(want) < 3 || want[len(want)-1].Type != server.EventJobDone {
		t.Fatalf("uninterrupted stream looks wrong: %d events, last %+v", len(want), want[len(want)-1])
	}
	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("resumed stream has a gap or duplicate at index %d: seq %d", i, ev.Seq)
		}
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("resumed stream diverged from uninterrupted stream:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}

	// The result fetched through the flaky proxy hashes identically.
	_, gotRaw := waitResult(t, flaky, sub.ID)
	if sha256.Sum256(gotRaw) != sha256.Sum256(wantRaw) {
		t.Fatalf("result bytes via flaky proxy differ from direct fetch")
	}
}

// TestEventsStopOnCallbackError: an fn error stops the stream
// immediately and surfaces unwrapped — it must not be mistaken for a
// dead connection and retried.
func TestEventsStopOnCallbackError(t *testing.T) {
	node := startNode(t)
	cl := newTestClient(t, node.URL, nil)
	ctx := context.Background()

	sub, err := cl.Submit(ctx, testJob())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitResult(t, cl, sub.ID)

	sentinel := errors.New("stop here")
	calls := 0
	err = cl.Events(ctx, sub.ID, func(server.Event) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Events returned %v, want the callback's sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after asking to stop", calls)
	}
}

// TestRetryHonorsRetryAfter: 503s are retried and a server Retry-After
// hint stretches the backoff (capped at maxDelay).
func TestRetryHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"state":"completed"}`))
	}))
	defer ts.Close()

	sleep, slept := virtualClock()
	cl := newTestClient(t, ts.URL, func(c *Config) { c.sleep = sleep })
	if _, _, _, err := cl.Result(context.Background(), "x"); err != nil {
		t.Fatalf("result after recovery: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", hits.Load())
	}
	if len(*slept) != 2 || (*slept)[0] != 2*time.Second || (*slept)[1] != 2*time.Second {
		t.Fatalf("backoff schedule %v, want the 2s Retry-After hint twice", *slept)
	}
}

// TestQuotaRejectionNotRetried: a 429 surfaces immediately as a typed
// APIError carrying the machine reason and the Retry-After hint — the
// client must not burn retries hiding quota pressure from the caller.
func TestQuotaRejectionNotRetried(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{
			"error":  `tenant "acme": cells-per-second quota exhausted`,
			"reason": server.ReasonQuotaCellRate,
		})
	}))
	defer ts.Close()

	cl := newTestClient(t, ts.URL, nil)
	_, err := cl.Submit(context.Background(), testJob())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit error %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Reason != server.ReasonQuotaCellRate {
		t.Fatalf("APIError %+v: wrong status or reason", apiErr)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter %v, want 7s", apiErr.RetryAfter)
	}
	if !apiErr.Temporary() {
		t.Fatalf("a 429 must be Temporary (retryable by the caller, later)")
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want exactly 1 (no retry on 429)", hits.Load())
	}
}

// TestTransportRetryBudget: connection-level failures are retried
// exactly maxRetries times, then the last error surfaces.
func TestTransportRetryBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close() // nothing listens: every dial fails

	sleep, slept := virtualClock()
	cl := newTestClient(t, ts.URL, func(c *Config) { c.sleep = sleep })
	if _, err := cl.Submit(context.Background(), testJob()); err == nil {
		t.Fatalf("submit to a dead node succeeded")
	}
	if len(*slept) != maxRetries {
		t.Fatalf("retried %d times, want %d", len(*slept), maxRetries)
	}
	for i := 1; i < len(*slept); i++ {
		if (*slept)[i] < (*slept)[i-1] {
			t.Fatalf("backoff not monotone: %v", *slept)
		}
	}
}

// TestEventsUnknownJobFailsFast: a 404 on the stream is not a
// connection problem; it returns immediately without reconnects.
func TestEventsUnknownJobFailsFast(t *testing.T) {
	node := startNode(t)
	sleep, slept := virtualClock()
	cl := newTestClient(t, node.URL, func(c *Config) { c.sleep = sleep })

	err := cl.Events(context.Background(), "nope", func(server.Event) error { return nil })
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("Events on unknown job: %v, want 404 APIError", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("client slept %v before failing fast on 404", *slept)
	}
}
