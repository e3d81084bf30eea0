package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"entangling/internal/server"
)

// This file implements the SSE side of the client: Events follows a
// job's progress stream and transparently survives severed
// connections. The server's event log is append-only and replayable
// from any position, and every SSE frame carries its sequence number
// as the event id — so on reconnect the client sends Last-Event-ID
// and receives exactly the events it has not yet delivered. The
// caller observes one gapless, duplicate-free, ordered sequence no
// matter how many times the underlying TCP connection died.

// Events streams a job's progress events to fn, in order, exactly
// once each, until the terminal job.done event (returns nil), the
// context cancels, fn returns an error (propagated), or the retry
// budget (maxRetries) is exhausted reconnecting. A non-retryable API
// answer (401, 403, 404) returns its *APIError immediately.
func (c *Client) Events(ctx context.Context, id string, fn func(server.Event) error) error {
	lastSeq := 0
	failures := 0
	for {
		err := c.streamOnce(ctx, id, &lastSeq, fn)
		switch {
		case err == nil:
			return nil // saw job.done
		case ctx.Err() != nil:
			return ctx.Err()
		}
		var stop *errStopped
		if errors.As(err, &stop) {
			return stop.err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return apiErr
		}
		// The connection died mid-stream (or the server was briefly
		// unavailable): back off and resume from lastSeq.
		if failures >= maxRetries {
			return fmt.Errorf("client: event stream for job %s: %w", id, err)
		}
		d := backoffDelay(failures, 0)
		failures++
		if serr := c.cfg.sleep(ctx, d); serr != nil {
			return fmt.Errorf("client: event stream for job %s: %w", id, err)
		}
	}
}

// errStopped wraps an error fn returned: the caller asked to stop,
// which must not be confused with a dead connection.
type errStopped struct{ err error }

func (e *errStopped) Error() string { return e.err.Error() }

// streamOnce opens one SSE connection from *lastSeq and delivers
// events until the stream ends. Returns nil only after job.done; any
// other termination is an interruption the caller may resume from.
func (c *Client) streamOnce(ctx context.Context, id string, lastSeq *int, fn func(server.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastSeq))
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("client: connecting event stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}

	// Parse SSE frames: "id:", "event:", "data:" lines, blank line
	// dispatches. The server emits one JSON Event per frame whose Seq
	// equals the SSE id; frames at or below lastSeq (possible only if
	// a proxy replayed bytes) are dropped, keeping delivery exactly
	// once.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var data strings.Builder
	sawDone := false
	flush := func() error {
		if data.Len() == 0 {
			return nil
		}
		payload := data.String()
		data.Reset()
		var ev server.Event
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return fmt.Errorf("client: malformed event payload: %w", err)
		}
		if ev.Seq <= *lastSeq {
			return nil
		}
		*lastSeq = ev.Seq
		if err := fn(ev); err != nil {
			return &errStopped{err}
		}
		if ev.Type == server.EventJobDone {
			sawDone = true
		}
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
			if sawDone {
				return nil
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		// id: and event: lines are redundant with the JSON payload
		// (Seq and Type); ignore them.
		default:
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if sawDone {
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: event stream read: %w", err)
	}
	// EOF without job.done: the server closed the stream early (drain,
	// restart, proxy cut). Resumable.
	return fmt.Errorf("client: event stream ended before job.done (last seq %d)", *lastSeq)
}
