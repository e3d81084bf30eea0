// Package client is the client the benchmark and the tests drive a
// job server node with: submit, the SSE progress stream and the
// result. It carries the parts of the /v1 API that are easy to get
// wrong: API-key auth, retry with exponential backoff honoring
// Retry-After, typed errors carrying the server's machine-readable
// rejection reason, and Last-Event-ID resume that survives a severed
// SSE connection without dropping or duplicating a single event.
//
// Job submission is content-addressed on the server (an identical
// resubmission dedupes onto the existing job), so retrying a POST
// /v1/jobs after a transport failure is safe — the worst case is a
// dedupe hit, never a duplicate sweep. That property is what lets the
// client retry submissions at all.
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

// The retry policy. A call is retried up to maxRetries times after a
// connection error or a 502/503/504, never after another 4xx —
// including 429, which the caller must see to count quota pressure.
// The delay doubles from baseDelay up to maxDelay; a server
// Retry-After hint stretches it, capped at maxDelay.
const (
	maxRetries = 4
	baseDelay  = 100 * time.Millisecond
	maxDelay   = 5 * time.Second
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

	// sleep waits between retries (default: timer + ctx). The tests
	// set it to run backoff schedules in virtual time.
	sleep func(context.Context, time.Duration) error
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
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error {
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
// baseDelay, capped at maxDelay, stretched to a server hint when the
// server asked for longer.
func backoffDelay(attempt int, hint time.Duration) time.Duration {
	d := baseDelay << attempt
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	if hint > d {
		d = min(hint, maxDelay)
	}
	return d
}

// retryableStatus reports whether the client retries the status itself.
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

		if attempt >= maxRetries {
			return nil, lastErr
		}
		if err := c.cfg.sleep(ctx, backoffDelay(attempt, hint)); err != nil {
			return nil, lastErr
		}
	}
}

// Submit posts a job. Deduped reports whether the server answered
// with an existing identical job.
func (c *Client) Submit(ctx context.Context, req server.JobRequest) (server.SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.SubmitResponse{}, fmt.Errorf("client: encoding job request: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, "application/json",
		http.StatusAccepted, http.StatusOK)
	if err != nil {
		return server.SubmitResponse{}, err
	}
	defer resp.Body.Close()
	var out server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return server.SubmitResponse{}, fmt.Errorf("client: decoding submit response: %w", err)
	}
	return out, nil
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
