// Package leakcheck asserts that a test leaves no goroutines behind.
// The job server is long-lived machinery full of background
// goroutines (job workers, detached flights, SSE followers); every
// test that starts any of it calls leakcheck.Check at the top, and the
// cleanup verifies the goroutine count returned to its baseline after
// the test's drains ran — a stuck flight or an abandoned resolution
// fails the test with a full stack dump instead of silently
// accumulating across the package run.
package leakcheck

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long a cleanup waits for goroutines to unwind before
// declaring a leak. Drains are synchronous, but connection teardown
// and timer-parked goroutines finish shortly after them.
const grace = 5 * time.Second

// Check snapshots the current goroutine count and registers a cleanup
// that fails the test if the count has not returned to that baseline
// (plus tolerance for runtime-owned goroutines) by the end of the
// test. Call it before starting servers or clients.
func Check(t testing.TB) {
	t.Helper()
	// Transport keep-alive goroutines from earlier tests are parked,
	// not leaked; retire them so they do not pollute the baseline in
	// either direction.
	http.DefaultClient.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(grace)
		var n int
		for {
			runtime.GC()
			n = runtime.NumGoroutine()
			if n <= baseline {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("leakcheck: %d goroutines at exit, baseline %d; stacks:\n%s",
			n, baseline, summarize(string(buf)))
	})
}

// summarize trims a full stack dump to its goroutine headers plus the
// first frame, enough to identify the leak without drowning the log.
func summarize(dump string) string {
	var sb strings.Builder
	for _, g := range strings.Split(dump, "\n\n") {
		lines := strings.Split(g, "\n")
		for i, l := range lines {
			if i > 2 {
				sb.WriteString("\t...\n")
				break
			}
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
