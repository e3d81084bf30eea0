package workload

import (
	"fmt"
	"sync"

	"entangling/internal/trace"
)

// This file implements the suite-sweep trace cache. A configurations x
// workloads sweep used to regenerate (build the program, walk the CFG,
// synthesize data addresses for) every workload's instruction stream
// once per configuration — N_cfgs x N_specs generations of N_specs
// distinct streams. The cache materializes each spec's stream once
// into an immutable instruction slice shared read-only by every
// configuration, and evicts it as soon as the last reference is
// dropped, so a sweep's resident trace set stays proportional to the
// worker count, not the suite size.
//
// Entries are plainly refcounted: every successful Acquire takes one
// reference and the matching Release drops it. A sweep that wants a
// trace to survive the gap between one cell's Release and the next
// cell's Acquire holds one extra reference with Retain for as long as
// it still has cells of that workload outstanding (see
// harness.RunSuiteCtx). Builds are singleflighted: any number of
// concurrent Acquires of the same (spec, n) — including acquirers from
// different sweeps or server jobs sharing one cache — join exactly one
// materialization instead of racing their own.

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

// TraceCache shares materialized traces between the runs of one or
// more sweeps. Safe for concurrent use.
type TraceCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	// builds and hits count materializations and shared reuses; they
	// feed CacheStats (and the >= 2x wall-clock claim: a sweep's
	// generation work is builds, not builds+hits).
	builds uint64
	hits   uint64

	// acquireHook, when set, is consulted before every Acquire and may
	// fail it (fault injection in tests). A hook-failed Acquire takes
	// no reference and must not be paired with a Release.
	acquireHook func(name string, n uint64) error
}

type cacheKey struct {
	name string
	n    uint64
}

type cacheEntry struct {
	// refs is the number of outstanding references (Acquires and
	// Retains not yet Released).
	refs int
	// pinned entries survive any number of Releases (benchmark drivers
	// that sweep the same suite repeatedly pin their specs up front).
	pinned bool
	// done is closed when the build completes; tr/err are written
	// (under the cache lock) before the close, so waiters that return
	// after <-done read them race-free.
	done chan struct{}
	tr   *Trace
	err  error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: make(map[cacheKey]*cacheEntry)}
}

// Acquire returns the materialized trace of spec's first n
// instructions, building it on first use; concurrent Acquires of the
// same (spec, n) join one singleflighted build instead of racing their
// own. Every successful Acquire takes one reference that the caller
// must drop with exactly one Release; a failed Acquire takes no
// reference and must not be Released. The entry is evicted when the
// last reference is gone (unless pinned).
func (c *TraceCache) Acquire(spec Spec, n uint64) (*Trace, error) {
	c.mu.Lock()
	hook := c.acquireHook
	c.mu.Unlock()
	if hook != nil {
		if err := hook(spec.Name, n); err != nil {
			return nil, fmt.Errorf("workload: acquiring trace %s: %w", spec.Name, err)
		}
	}
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{refs: 1, done: make(chan struct{})}
		c.entries[key] = e
		c.builds++
		c.mu.Unlock()
		return c.build(key, e, spec, n)
	}
	e.refs++
	c.hits++
	c.mu.Unlock()

	<-e.done
	if e.err != nil {
		return nil, e.err
	}
	return e.tr, nil
}

// build materializes the entry's trace and publishes the outcome. A
// failed build is evicted immediately so a later Acquire retries
// instead of being served a cached error forever.
func (c *TraceCache) build(key cacheKey, e *cacheEntry, spec Spec, n uint64) (*Trace, error) {
	tr, err := Materialize(spec, n)
	c.mu.Lock()
	e.tr, e.err = tr, err
	if c.entries[key] == e {
		if err != nil {
			// Waiters still receive err via the entry pointer; the
			// map no longer serves it.
			delete(c.entries, key)
		} else if e.refs <= 0 && !e.pinned {
			// Every acquirer released (or retained and released)
			// while the build was still running.
			delete(c.entries, key)
		}
	}
	close(e.done)
	c.mu.Unlock()
	return tr, err
}

// Retain takes one additional reference on an already-resident
// (spec, n) entry without counting a cache hit, reporting whether the
// entry was present. Sweeps use it to keep a trace alive across the
// gap between one cell's Release and the next cell's Acquire; the
// reference is dropped with a matching Release.
func (c *TraceCache) Retain(spec Spec, n uint64) bool {
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	e.refs++
	return true
}

// Pin materializes the (spec, n) trace and retains it for the cache's
// lifetime: subsequent Acquires are hits and Releases never evict it.
// Drivers that run the same sweep repeatedly (benchmark iterations)
// pin their specs once so re-runs skip generation entirely.
func (c *TraceCache) Pin(spec Spec, n uint64) (*Trace, error) {
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{pinned: true, done: make(chan struct{})}
		c.entries[key] = e
		c.builds++
		c.mu.Unlock()
		return c.build(key, e, spec, n)
	}
	e.pinned = true
	c.hits++
	c.mu.Unlock()

	<-e.done
	return e.tr, e.err
}

// Release drops one reference on the (spec, n) trace. When the last
// reference is gone the entry is evicted, freeing the stream; pinned
// entries are never evicted. Releasing an absent entry is a no-op.
func (c *TraceCache) Release(spec Spec, n uint64) {
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.pinned {
		return
	}
	e.refs--
	if e.refs > 0 {
		return
	}
	select {
	case <-e.done:
		delete(c.entries, key)
	default:
		// Still building: deleting now would let a concurrent Acquire
		// start a second build of the same trace. The builder evicts
		// the entry itself if the refcount is still zero when the
		// build completes.
	}
}

// SetAcquireHook installs (or, with nil, removes) a hook consulted
// before every Acquire. A non-nil error from the hook fails the
// Acquire without taking a reference: the caller must not Release it.
// The hook exists for deterministic fault injection in tests (see
// internal/faultinject).
func (c *TraceCache) SetAcquireHook(h func(name string, n uint64) error) {
	c.mu.Lock()
	c.acquireHook = h
	c.mu.Unlock()
}

// CacheStats reports materializations performed and shared reuses
// served, plus the number of currently resident traces.
func (c *TraceCache) CacheStats() (builds, hits uint64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds, c.hits, len(c.entries)
}

// String renders the cache counters (diagnostics).
func (c *TraceCache) String() string {
	builds, hits, resident := c.CacheStats()
	return fmt.Sprintf("tracecache{builds: %d, hits: %d, resident: %d}", builds, hits, resident)
}
