package workload

import (
	"fmt"
	"sync"

	"entangling/internal/trace"
)

// This file implements the shared trace cache. A configurations x
// workloads sweep (or a server job of the same shape) would otherwise
// regenerate every workload's instruction stream once per
// configuration. The cache materializes each (spec, n) stream once
// into an immutable instruction slice shared read-only by every
// configuration.
//
// A trace's lifetime follows one rule: one reference per pending cell.
// A driver Reserves one use per cell it will run over the trace before
// any of them starts, and Releases one use as each cell finishes (ran,
// failed or was abandoned). Get builds the trace or joins the build
// already running and takes no reference, so a trace stays resident
// from its first Get until the last reserved use is released, however
// the cells interleave, and is evicted then. Builds are
// singleflighted: any number of concurrent Gets of the same (spec, n),
// from different sweeps or server jobs sharing one cache, join exactly
// one materialization.

// Trace is an immutable, materialized instruction stream. It is safe
// to share across goroutines; each reader gets its own Source.
type Trace struct {
	// Name is the workload the trace was materialized from.
	Name string
	// Instrs is the instruction stream. Readers must not mutate it.
	Instrs []trace.Instruction
}

// Source returns a fresh reader over the trace.
func (t *Trace) Source() trace.Source {
	return &trace.SliceSource{Instrs: t.Instrs}
}

// Materialize builds a spec's program and walks exactly n instructions
// into an immutable trace. Two calls with the same spec and n yield
// identical streams (the walk is deterministic), which is what makes
// sharing one materialization across configurations behaviour-
// preserving.
func Materialize(spec Spec, n uint64) (*Trace, error) {
	if spec.TraceBacked() {
		return materializeTrace(spec, n)
	}
	w, err := spec.New()
	if err != nil {
		return nil, err
	}
	instrs := make([]trace.Instruction, n)
	for i := range instrs {
		if !w.Next(&instrs[i]) {
			instrs = instrs[:i]
			break
		}
	}
	return &Trace{Name: spec.Name, Instrs: instrs}, nil
}

// materializeTrace decodes the first n instructions of a trace-backed
// spec's stored payload. The decode is capped at n records, so a
// too-long stored trace costs nothing beyond the requested window; a
// decode error (the store only holds validated traces, but the opener
// is caller-supplied) fails the materialization rather than feeding a
// short stream to the simulator silently.
func materializeTrace(spec Spec, n uint64) (*Trace, error) {
	if spec.Open == nil {
		return nil, fmt.Errorf("workload %s: trace %s is not available on this node (no opener)",
			spec.Name, spec.Params.TraceSHA256)
	}
	rc, err := spec.Open()
	if err != nil {
		return nil, fmt.Errorf("workload %s: opening trace: %w", spec.Name, err)
	}
	defer rc.Close()
	rd, err := trace.NewReader(rc)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	instrs := make([]trace.Instruction, 0, min64(n, 1<<20))
	var in trace.Instruction
	for uint64(len(instrs)) < n && rd.Next(&in) {
		instrs = append(instrs, in)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("workload %s: decoding trace: %w", spec.Name, err)
	}
	return &Trace{Name: spec.Name, Instrs: instrs}, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TraceCache shares materialized traces between the cells of one or
// more sweeps. Safe for concurrent use.
type TraceCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	// builds and hits count materializations and shared reuses; they
	// feed CacheStats (and the >= 2x wall-clock claim: a sweep's
	// generation work is builds, not builds+hits).
	builds uint64
	hits   uint64
}

type cacheKey struct {
	name string
	n    uint64
}

type cacheEntry struct {
	// uses is the number of reserved uses not yet released.
	uses int
	// pinned entries survive any number of Releases (benchmark drivers
	// that sweep the same suite repeatedly pin their specs up front).
	pinned bool
	// done is nil until the first Get (or Pin) starts the build, and
	// closed when the build completes; tr/err are written (under the
	// cache lock) before the close, so waiters that return after
	// <-done read them race-free.
	done chan struct{}
	tr   *Trace
	err  error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: make(map[cacheKey]*cacheEntry)}
}

// entry returns the (spec, n) entry, creating an unbuilt one if
// absent. Callers hold c.mu.
func (c *TraceCache) entry(key cacheKey) *cacheEntry {
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	return e
}

// Reserve adds uses references to the (spec, n) trace without building
// it: the trace, once built, stays resident until that many Releases.
func (c *TraceCache) Reserve(spec Spec, n uint64, uses int) {
	c.mu.Lock()
	c.entry(cacheKey{name: spec.Name, n: n}).uses += uses
	c.mu.Unlock()
}

// Get returns the materialized trace of spec's first n instructions,
// building it on first use; concurrent Gets of the same (spec, n) join
// one build instead of racing their own. Get takes no reference: the
// caller keeps the trace resident with a reservation (see Reserve). A
// trace nobody has reserved is evicted as soon as its build completes.
func (c *TraceCache) Get(spec Spec, n uint64) (*Trace, error) {
	return c.get(spec, n, false)
}

// Pin materializes the (spec, n) trace and keeps it for the cache's
// lifetime: later Gets are hits and Releases never evict it. Drivers
// that run the same sweep repeatedly (benchmark iterations) pin their
// specs once so re-runs skip generation entirely.
func (c *TraceCache) Pin(spec Spec, n uint64) (*Trace, error) {
	return c.get(spec, n, true)
}

func (c *TraceCache) get(spec Spec, n uint64, pin bool) (*Trace, error) {
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	e := c.entry(key)
	e.pinned = e.pinned || pin
	if e.done != nil {
		c.hits++
		c.mu.Unlock()
		<-e.done
		return e.tr, e.err
	}
	e.done = make(chan struct{})
	c.builds++
	c.mu.Unlock()

	tr, err := Materialize(spec, n)
	c.mu.Lock()
	e.tr, e.err = tr, err
	// Nothing else removes an entry while it builds (see Release), so
	// the map still holds e here.
	switch {
	case err != nil && (e.uses > 0 || e.pinned):
		// A failed build is not cached: its reservations move to a
		// fresh unbuilt entry, so the next Get retries. Waiters still
		// receive err via the old entry.
		c.entries[key] = &cacheEntry{uses: e.uses, pinned: e.pinned}
	case err != nil || (e.uses <= 0 && !e.pinned):
		// Failed, or every reserved use was released while the build
		// was still running.
		delete(c.entries, key)
	}
	close(e.done)
	c.mu.Unlock()
	return tr, err
}

// Release drops one reserved use of the (spec, n) trace. The last one
// evicts the trace, freeing the stream; a build still running evicts
// it when it completes. Pinned entries are never evicted, and
// releasing an absent entry is a no-op.
func (c *TraceCache) Release(spec Spec, n uint64) {
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.pinned {
		return
	}
	e.uses--
	if e.uses > 0 {
		return
	}
	if e.done == nil {
		delete(c.entries, key) // never built
		return
	}
	select {
	case <-e.done:
		delete(c.entries, key)
	default:
		// Still building: deleting now would let a concurrent Get
		// start a second build of the same trace.
	}
}

// CacheStats reports materializations performed and shared reuses
// served, plus the number of resident traces: those built or being
// built (a reservation alone holds no memory).
func (c *TraceCache) CacheStats() (builds, hits uint64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.done != nil {
			resident++
		}
	}
	return c.builds, c.hits, resident
}

// String renders the cache counters (diagnostics).
func (c *TraceCache) String() string {
	builds, hits, resident := c.CacheStats()
	return fmt.Sprintf("tracecache{builds: %d, hits: %d, resident: %d}", builds, hits, resident)
}
