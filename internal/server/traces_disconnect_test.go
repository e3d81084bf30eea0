package server

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

// TestTraceUploadDisconnectLeavesNoResidue is the regression test for
// the /v1/traces ingest path under client disconnects: a tenant whose
// connection dies mid-upload must leave nothing behind — no staged
// *.tmp file in the trace directory, no charged trace-bytes
// quota, and no effect on later uploads. The handler streams the body
// straight into trace.Store.Put, whose deferred cleanup removes the
// staging file on any error path; this pins that contract from the
// outside, over a real severed TCP connection.
func TestTraceUploadDisconnectLeavesNoResidue(t *testing.T) {
	cfg := tenantTestConfig()
	cfg.TraceDir = t.TempDir()
	s, ts := startTestServer(t, cfg)

	payload := encodeWalkerTrace(t, 3_000)

	// Open a raw connection, announce the full length, send half, die.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fmt.Fprintf(conn, "POST /v1/traces HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer %s\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
		goldKey, len(payload))
	if _, err := conn.Write(payload[:len(payload)/2]); err != nil {
		t.Fatalf("writing partial body: %v", err)
	}
	conn.Close()

	// The handler notices the truncation when its copy loop hits the
	// dead connection; give it a moment, then require a clean floor.
	deadline := time.Now().Add(5 * time.Second)
	for {
		residue, err := filepath.Glob(filepath.Join(cfg.TraceDir, "*.tmp"))
		if err != nil {
			t.Fatalf("globbing trace dir: %v", err)
		}
		if len(residue) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged upload files left behind after disconnect: %v", residue)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The aborted upload charged nothing.
	acme := s.tenants.byName["acme"]
	acme.mu.Lock()
	charged := acme.traceBytes
	acme.mu.Unlock()
	if charged != 0 {
		t.Fatalf("aborted upload charged %d trace bytes", charged)
	}

	// The store is fully usable: the same tenant's complete upload
	// lands (201, not a dedupe of a half-ingested ghost), is listed,
	// and is charged exactly once.
	status, body := doAs(t, ts, goldKey, "POST", "/v1/traces", payload)
	if status != http.StatusCreated {
		t.Fatalf("upload after disconnect: status %d (%s)", status, body)
	}
	status, body = doAs(t, ts, goldKey, "GET", "/v1/traces", nil)
	if status != http.StatusOK {
		t.Fatalf("trace list: status %d (%s)", status, body)
	}
	acme.mu.Lock()
	charged = acme.traceBytes
	acme.mu.Unlock()
	if charged != int64(len(payload)) {
		t.Fatalf("trace-bytes charge %d after one successful upload of %d bytes", charged, len(payload))
	}
}
