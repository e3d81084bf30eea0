// Package client is the Go SDK for the job server's /v1 API: submit,
// status, result, cancel, trace upload and the SSE progress stream. It
// exists so every program that talks to a node — the benchmark, tests,
// external tooling — shares one implementation of the boring-but-
// load-bearing parts: API-key auth, retry with exponential backoff
// honoring Retry-After, typed errors carrying the server's
// machine-readable rejection reason, and Last-Event-ID resume that
// survives a severed SSE connection without dropping or duplicating a
// single event.
//
// Job submission is content-addressed on the server (an identical
// resubmission dedupes onto the existing job), so retrying a POST
// /v1/jobs after a transport failure is safe — the worst case is a
// dedupe hit, never a duplicate sweep. That property is what lets the
// SDK retry submissions at all.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"entangling/internal/server"
)

// Config assembles a Client.
type Config struct {
	// BaseURL locates the node, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey authenticates every request on a multi-tenant node (sent
	// as Authorization: Bearer). Empty on an open node.
	APIKey string
	// HTTP is the transport (default: a client with no global timeout —
	// SSE streams are long-lived; use contexts to bound calls).
	HTTP *http.Client
	// Retries bounds transport-level retries per call (default 4).
	// Retried: connection errors and 502/503/504. Not retried: 4xx —
	// including 429, which the caller must see to count quota pressure.
	Retries int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it (default 5s). A server Retry-After hint overrides the
	// computed delay when larger, capped at MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep waits between retries (default: timer + ctx). Injectable so
	// tests run backoff schedules in virtual time.
	Sleep func(context.Context, time.Duration) error
	// Logf receives debug lines (default: discard).
	Logf func(format string, args ...any)
}

// Client talks to one node. Safe for concurrent use.
type Client struct {
	cfg Config
}

// New validates the config and builds a Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 4
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Client{cfg: cfg}, nil
}

// APIError is a non-2xx response, carrying the server's
// machine-readable reason (the server.Reason* taxonomy) alongside the
// human-readable message.
type APIError struct {
	Status  int
	Reason  string
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("client: server answered %d (%s): %s", e.Status, e.Reason, e.Message)
	}
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// Temporary reports whether retrying the same call later could
// succeed (quota windows refill, queues drain, gateways recover).
func (e *APIError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// SubmitResponse mirrors the POST /v1/jobs body.
type SubmitResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped"`
	Cells   int    `json:"cells"`
	Status  string `json:"status_url"`
	Events  string `json:"events_url"`
	Result  string `json:"result_url"`
}

// TraceDoc mirrors the POST /v1/traces body.
type TraceDoc struct {
	ID           string `json:"id"`
	Workload     string `json:"workload"`
	Instructions uint64 `json:"instructions"`
	Bytes        int64  `json:"bytes"`
	Format       string `json:"format"`
	Deduped      bool   `json:"deduped,omitempty"`
}

// retryAfter parses a Retry-After header (seconds form only; the
// server never sends HTTP dates).
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
		return time.Duration(n) * time.Second
	}
	return 0
}

// apiError drains and decodes a non-2xx body into an *APIError. The
// body may not be JSON (proxies); the raw text then becomes Message.
func apiError(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{Status: resp.StatusCode, RetryAfter: retryAfter(resp)}
	var doc struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		e.Message, e.Reason = doc.Error, doc.Reason
	} else {
		e.Message = strings.TrimSpace(string(body))
	}
	return e
}

// backoffDelay computes the attempt'th retry delay: exponential from
// BaseDelay, capped at MaxDelay, stretched to a server hint when the
// server asked for longer.
func (c *Client) backoffDelay(attempt int, hint time.Duration) time.Duration {
	d := c.cfg.BaseDelay << attempt
	if d > c.cfg.MaxDelay || d <= 0 {
		d = c.cfg.MaxDelay
	}
	if hint > d {
		d = hint
		if d > c.cfg.MaxDelay {
			d = c.cfg.MaxDelay
		}
	}
	return d
}

// retryableStatus reports whether the SDK retries the status itself.
// 429 deliberately is not here: quota rejections are an answer, not a
// transport failure, and hiding them would blind the caller's error
// taxonomy. Callers that want to wait out a quota use the APIError's
// RetryAfter hint themselves.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one API call with auth, retry and backoff. body, when
// non-nil, must be replayable (we re-materialize it per attempt).
// want is the set of acceptable statuses; anything else decodes into
// an *APIError. The caller owns closing the returned response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string, want ...int) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.cfg.APIKey != "" {
			req.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
		}

		resp, err := c.cfg.HTTP.Do(req)
		var hint time.Duration
		switch {
		case err != nil:
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
		default:
			ok := false
			for _, w := range want {
				if resp.StatusCode == w {
					ok = true
					break
				}
			}
			if ok {
				return resp, nil
			}
			apiErr := apiError(resp)
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return nil, apiErr
			}
			lastErr, hint = apiErr, apiErr.RetryAfter
		}

		if attempt >= c.cfg.Retries {
			return nil, lastErr
		}
		d := c.backoffDelay(attempt, hint)
		c.cfg.Logf("client: %s %s failed (%v); retrying in %s", method, path, lastErr, d)
		if err := c.cfg.Sleep(ctx, d); err != nil {
			return nil, lastErr
		}
	}
}

// decodeInto closes the body after decoding one JSON document.
func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", resp.Request.URL.Path, err)
	}
	return nil
}

// Submit posts a job. Deduped reports whether the server answered
// with an existing identical job.
func (c *Client) Submit(ctx context.Context, req server.JobRequest) (SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("client: encoding job request: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, "application/json",
		http.StatusAccepted, http.StatusOK)
	if err != nil {
		return SubmitResponse{}, err
	}
	var out SubmitResponse
	return out, decodeInto(resp, &out)
}

// Status fetches a job's status document.
func (c *Client) Status(ctx context.Context, id string) (server.StatusDoc, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, "", http.StatusOK)
	if err != nil {
		return server.StatusDoc{}, err
	}
	var out server.StatusDoc
	return out, decodeInto(resp, &out)
}

// Cancel withdraws this tenant's interest in a job (which cancels it
// outright on an open server, or when this tenant is the last owner).
func (c *Client) Cancel(ctx context.Context, id string) (server.StatusDoc, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "", http.StatusOK)
	if err != nil {
		return server.StatusDoc{}, err
	}
	var out server.StatusDoc
	return out, decodeInto(resp, &out)
}

// Result fetches a terminal job's result document plus the exact
// response bytes (hashable for cross-transport comparison). A job
// that is still running returns ok=false with no error.
func (c *Client) Result(ctx context.Context, id string) (server.ResultDoc, []byte, bool, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, "",
		http.StatusOK, http.StatusAccepted)
	if err != nil {
		return server.ResultDoc{}, nil, false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.ResultDoc{}, nil, false, fmt.Errorf("client: reading result: %w", err)
	}
	if resp.StatusCode == http.StatusAccepted {
		return server.ResultDoc{}, nil, false, nil
	}
	var doc server.ResultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return server.ResultDoc{}, nil, false, fmt.Errorf("client: decoding result: %w", err)
	}
	return doc, raw, true, nil
}

// WaitResult polls /result until the job is terminal, honoring the
// server's Retry-After pacing hint, and returns the final document
// with its raw bytes.
func (c *Client) WaitResult(ctx context.Context, id string) (server.ResultDoc, []byte, error) {
	for {
		doc, raw, done, err := c.Result(ctx, id)
		if err != nil {
			return server.ResultDoc{}, nil, err
		}
		if done {
			return doc, raw, nil
		}
		if err := c.cfg.Sleep(ctx, 50*time.Millisecond); err != nil {
			return server.ResultDoc{}, nil, err
		}
	}
}

// UploadTrace ingests one trace body. format is "" (ENTRACE1),
// "entrace1" or "champsim". The body is buffered so transport retries
// can replay it; traces the server already stores dedupe server-side.
func (c *Client) UploadTrace(ctx context.Context, body []byte, format string) (TraceDoc, error) {
	path := "/v1/traces"
	if format != "" {
		path += "?format=" + format
	}
	resp, err := c.do(ctx, http.MethodPost, path, body, "application/octet-stream",
		http.StatusCreated, http.StatusOK)
	if err != nil {
		return TraceDoc{}, err
	}
	var out TraceDoc
	return out, decodeInto(resp, &out)
}

// Healthz reports whether the node answers health checks.
func (c *Client) Healthz(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, "", http.StatusOK)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Metrics fetches the node's Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil, "", http.StatusOK)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading metrics: %w", err)
	}
	return string(b), nil
}
