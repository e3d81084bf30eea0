package workload

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"entangling/internal/trace"
)

func testSpec(t *testing.T) Spec {
	t.Helper()
	specs := CVPSuite(1)
	if len(specs) == 0 {
		t.Fatal("CVPSuite returned no specs")
	}
	return specs[0]
}

func TestMaterializeMatchesWalker(t *testing.T) {
	spec := testSpec(t)
	const n = 2000

	tr, err := Materialize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Instrs) != n {
		t.Fatalf("materialized %d instructions, want %d", len(tr.Instrs), n)
	}
	if tr.Name != spec.Name {
		t.Errorf("trace name %q, want %q", tr.Name, spec.Name)
	}

	// The materialized stream must be exactly what a fresh walker
	// produces — that identity is what makes sharing one trace across
	// configurations behaviour-preserving.
	w, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	var in trace.Instruction
	for i := 0; i < n; i++ {
		if !w.Next(&in) {
			t.Fatalf("walker ended early at %d", i)
		}
		if in != tr.Instrs[i] {
			t.Fatalf("instruction %d diverges: walker %+v, trace %+v", i, in, tr.Instrs[i])
		}
	}
}

func TestTraceSourceIndependentReaders(t *testing.T) {
	tr := &Trace{Instrs: []trace.Instruction{{PC: 1}, {PC: 2}, {PC: 3}}}
	a, b := tr.Source(), tr.Source()
	var in trace.Instruction
	if !a.Next(&in) || in.PC != 1 {
		t.Fatal("reader a out of position")
	}
	if !a.Next(&in) || in.PC != 2 {
		t.Fatal("reader a out of position")
	}
	// b starts at the beginning regardless of a's progress.
	if !b.Next(&in) || in.PC != 1 {
		t.Fatal("reader b shares position with a")
	}
}

func TestTraceCacheRefcount(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()

	c.Reserve(spec, 100, 2)
	t1, err := c.Get(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Get(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("second Get did not share the materialized trace")
	}
	if builds, hits, resident := c.CacheStats(); builds != 1 || hits != 1 || resident != 1 {
		t.Errorf("stats after 2 gets: builds=%d hits=%d resident=%d", builds, hits, resident)
	}

	// A different window is a different entry.
	c.Reserve(spec, 50, 1)
	if _, err := c.Get(spec, 50); err != nil {
		t.Fatal(err)
	}
	if builds, _, resident := c.CacheStats(); builds != 2 || resident != 2 {
		t.Errorf("stats after second window: builds=%d resident=%d", builds, resident)
	}

	c.Release(spec, 100)
	if _, _, resident := c.CacheStats(); resident != 2 {
		t.Errorf("entry evicted with a use outstanding (resident=%d)", resident)
	}
	c.Release(spec, 100)
	if _, _, resident := c.CacheStats(); resident != 1 {
		t.Errorf("entry not evicted after last Release (resident=%d)", resident)
	}
	// Releasing an absent entry is a no-op.
	c.Release(spec, 100)

	// An unreserved Get builds and evicts at once.
	if _, err := c.Get(spec, 30); err != nil {
		t.Fatal(err)
	}
	if builds, _, resident := c.CacheStats(); builds != 3 || resident != 1 {
		t.Errorf("unreserved Get: builds=%d resident=%d, want 3 and 1", builds, resident)
	}
}

// TestTraceCacheReservationBridgesGets: cells that run one after
// another share one build, because the reservation, not the Get,
// keeps the trace resident across the gap between them.
func TestTraceCacheReservationBridgesGets(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()
	const cells = 3

	c.Reserve(spec, 100, cells)
	for i := 0; i < cells; i++ {
		if _, _, resident := c.CacheStats(); i > 0 && resident != 1 {
			t.Fatalf("trace evicted between cells %d and %d (resident=%d)", i-1, i, resident)
		}
		if _, err := c.Get(spec, 100); err != nil {
			t.Fatal(err)
		}
		c.Release(spec, 100)
	}
	if builds, hits, resident := c.CacheStats(); builds != 1 || hits != cells-1 || resident != 0 {
		t.Errorf("builds=%d hits=%d resident=%d, want 1, %d, 0", builds, hits, resident, cells-1)
	}
}

func TestTraceCacheReserveWithoutGetBuildsNothing(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()
	const k = 5

	c.Reserve(spec, 100, k)
	if builds, _, resident := c.CacheStats(); builds != 0 || resident != 0 {
		t.Fatalf("Reserve built or counted a trace: builds=%d resident=%d", builds, resident)
	}
	for i := 0; i < k; i++ {
		c.Release(spec, 100)
	}
	if builds, hits, resident := c.CacheStats(); builds != 0 || hits != 0 || resident != 0 {
		t.Errorf("after %d releases: builds=%d hits=%d resident=%d, want all 0", k, builds, hits, resident)
	}
	if n := len(c.entries); n != 0 {
		t.Errorf("%d unbuilt entries left behind", n)
	}
}

func TestTraceCacheFailedBuildKeepsReservation(t *testing.T) {
	payload, _ := encodeTestTrace(t, 500)
	fail := errors.New("storage offline")
	opens := 0
	spec := TraceSpec("trace:flaky", "flaky", func() (io.ReadCloser, error) {
		opens++
		if opens == 1 {
			return nil, fail
		}
		return io.NopCloser(bytes.NewReader(payload)), nil
	})
	c := NewTraceCache()

	c.Reserve(spec, 500, 2)
	if _, err := c.Get(spec, 500); !errors.Is(err, fail) {
		t.Fatalf("Get error = %v, want wrapped %v", err, fail)
	}
	if builds, _, resident := c.CacheStats(); builds != 1 || resident != 0 {
		t.Fatalf("failed build cached: builds=%d resident=%d", builds, resident)
	}

	// The next Get rebuilds, and the two reserved uses still hold it.
	tr, err := c.Get(spec, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Instrs) != 500 {
		t.Fatalf("rebuilt trace has %d instructions, want 500", len(tr.Instrs))
	}
	if builds, _, resident := c.CacheStats(); builds != 2 || resident != 1 {
		t.Fatalf("retry: builds=%d resident=%d, want 2 and 1", builds, resident)
	}
	c.Release(spec, 500)
	if _, _, resident := c.CacheStats(); resident != 1 {
		t.Fatalf("reservation lost across the failed build (resident=%d)", resident)
	}
	c.Release(spec, 500)
	if _, _, resident := c.CacheStats(); resident != 0 {
		t.Errorf("entry not evicted after last Release (resident=%d)", resident)
	}
}

func TestTraceCacheReleaseDuringBuildEvicts(t *testing.T) {
	payload, _ := encodeTestTrace(t, 500)
	opened, unblock := make(chan struct{}), make(chan struct{})
	spec := TraceSpec("trace:slow", "slow", func() (io.ReadCloser, error) {
		close(opened)
		<-unblock
		return io.NopCloser(bytes.NewReader(payload)), nil
	})
	c := NewTraceCache()

	c.Reserve(spec, 500, 1)
	got := make(chan error, 1)
	go func() {
		_, err := c.Get(spec, 500)
		got <- err
	}()
	<-opened
	c.Release(spec, 500)
	if _, _, resident := c.CacheStats(); resident != 1 {
		t.Fatalf("building entry not resident (resident=%d)", resident)
	}
	close(unblock)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if builds, _, resident := c.CacheStats(); builds != 1 || resident != 0 {
		t.Errorf("after build: builds=%d resident=%d, want 1 and 0", builds, resident)
	}
}

func TestTraceCacheConcurrentGetBuildsOnce(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()
	const workers = 16

	c.Reserve(spec, 200, workers)
	traces := make([]*Trace, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.Release(spec, 200)
			tr, err := c.Get(spec, 200)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()

	for i := 1; i < workers; i++ {
		if traces[i] != traces[0] {
			t.Fatal("concurrent gets produced distinct traces")
		}
	}
	if builds, hits, resident := c.CacheStats(); builds != 1 || hits != workers-1 || resident != 0 {
		t.Errorf("builds=%d hits=%d resident=%d, want 1, %d, 0", builds, hits, resident, workers-1)
	}
}

func TestTraceCachePinSurvivesRelease(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()

	pinned, err := c.Pin(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	// A Get of a pinned entry is a hit and shares the trace.
	c.Reserve(spec, 100, 1)
	got, err := c.Get(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != pinned {
		t.Error("Get after Pin rebuilt the trace")
	}
	// No number of Releases evicts a pinned entry.
	for i := 0; i < 5; i++ {
		c.Release(spec, 100)
	}
	if _, _, resident := c.CacheStats(); resident != 1 {
		t.Errorf("pinned entry evicted (resident=%d)", resident)
	}
	if builds, hits, _ := c.CacheStats(); builds != 1 || hits != 1 {
		t.Errorf("builds=%d hits=%d after Pin+Get, want 1 and 1", builds, hits)
	}

	// Pinning an entry reserved and built first also protects it.
	c.Reserve(spec, 30, 1)
	if _, err := c.Get(spec, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pin(spec, 30); err != nil {
		t.Fatal(err)
	}
	c.Release(spec, 30)
	if _, _, resident := c.CacheStats(); resident != 2 {
		t.Errorf("late-pinned entry evicted (resident=%d)", resident)
	}
}
