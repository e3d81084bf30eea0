package workload

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"entangling/internal/trace"
)

// This file implements the shared trace cache. A configurations x
// workloads sweep (or a server job of the same shape) would otherwise
// regenerate every workload's instruction stream once per
// configuration. The cache materializes each (spec, n) stream once
// into an immutable packed stream (trace.Packed, about 4.5 bytes per
// instruction instead of a 32-byte trace.Instruction) shared read-only
// by every configuration.
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
	// Packed is the instruction stream every Source reads.
	Packed *trace.Packed
	// Instrs is an expanded copy of Packed for callers that index
	// records. Materialize fills it; cached traces leave it nil.
	// Readers must not mutate it.
	Instrs []trace.Instruction

	// derived holds what Derive built, by key.
	mu      sync.Mutex
	derived map[any]*derivedEntry
}

// Derived is a value computed from a trace's packed stream alone and
// shared by the cells that run over the trace: the CPU model's
// presolved branch and L1D outcomes. Bytes is the memory it holds.
type Derived interface{ Bytes() uint64 }

type derivedEntry struct {
	// done is closed when the build completes; v and err are written
	// (under the trace's lock) before the close.
	done chan struct{}
	v    Derived
	err  error
}

// errDeriveAborted is what waiters on a build that panicked receive.
var errDeriveAborted = errors.New("workload: building a derived stream panicked")

// Derive returns the value build computes for key, a comparable value
// naming everything besides the trace the value depends on. build runs
// on the first Derive of key only: concurrent Derives of the key join
// that build, and later ones return its result, error included (the
// build depends on the trace and the key alone, so it would fail the
// same way again). In a TraceCache the value is freed when the
// trace's last reserved use is released: with the trace, or, for a
// pinned trace, on its own, so derived values never outlive the cells
// they were built for.
func (t *Trace) Derive(key any, build func() (Derived, error)) (Derived, error) {
	t.mu.Lock()
	if e, ok := t.derived[key]; ok {
		t.mu.Unlock()
		<-e.done
		return e.v, e.err
	}
	if t.derived == nil {
		t.derived = make(map[any]*derivedEntry)
	}
	e := &derivedEntry{done: make(chan struct{})}
	t.derived[key] = e
	t.mu.Unlock()

	var v Derived
	err := errDeriveAborted
	defer func() {
		t.mu.Lock()
		e.v, e.err = v, err
		close(e.done)
		t.mu.Unlock()
	}()
	v, err = build()
	return v, err
}

// dropDerived forgets every derived value; a later Derive builds again.
func (t *Trace) dropDerived() {
	t.mu.Lock()
	t.derived = nil
	t.mu.Unlock()
}

// Bytes returns the memory the trace holds: its packed stream and the
// derived values built so far.
func (t *Trace) Bytes() uint64 {
	n := t.Packed.Bytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.derived {
		if e.v != nil && e.err == nil {
			n += e.v.Bytes()
		}
	}
	return n
}

// Source returns a fresh reader over the packed stream.
func (t *Trace) Source() trace.Source { return trace.NewPackedSource(t.Packed) }

// Materialize builds a spec's program and walks exactly n instructions
// into an immutable trace, with Instrs filled. Two calls with the same
// spec and n yield identical streams (the walk is deterministic), which
// is what makes sharing one materialization across configurations
// behaviour-preserving.
func Materialize(spec Spec, n uint64) (*Trace, error) {
	tr, err := pack(spec, n, false)
	if err != nil {
		return nil, err
	}
	tr.Instrs = tr.Packed.Expand()
	return tr, nil
}

// pack builds the packed trace of spec's first n instructions. trim
// asks for a walker trace's word stream without its unused tail.
func pack(spec Spec, n uint64, trim bool) (*Trace, error) {
	if spec.TraceBacked() {
		return materializeTrace(spec, n)
	}
	w, err := spec.New()
	if err != nil {
		return nil, err
	}
	// A word per branch and per memory op: the shipped specs need 0.36
	// to 0.48 per instruction, so the presized stream does not grow.
	// The loop calls the walker directly, not through trace.Copy's
	// Source interface; the walker's stream is unbounded.
	pk := trace.NewPacker(int(n), int(n/2))
	var in trace.Instruction
	for range n {
		w.Next(&in)
		if err := pk.Append(&in); err != nil {
			return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
		}
	}
	tr := &Trace{Name: spec.Name, Packed: pk.Packed()}
	// A pinned trace lives as long as its cache, so its unused tail is
	// trimmed; the copy costs far less than the walk, but more than a
	// trace released after a cell or two gets back.
	if trim {
		tr.Packed.Words = slices.Clip(append([]uint64(nil), tr.Packed.Words...))
	}
	return tr, nil
}

// packSource packs the first n records of src into pk. A record the
// packed form cannot hold, or a decoding src's error, fails the build.
func packSource(name string, src trace.Source, n uint64, pk *trace.Packer) (*Trace, error) {
	if _, err := trace.Copy(pk.Append, src, n); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &Trace{Name: name, Packed: pk.Packed()}, nil
}

// ErrTraceTooShort reports a stored trace that ends before the number
// of records a run asks of it.
var ErrTraceTooShort = errors.New("trace shorter than requested")

// materializeTrace packs the first n instructions of a trace-backed
// spec's stored payload. The decode is capped at n records, so a
// too-long stored trace costs nothing beyond the requested window; a
// decode error (the store only holds validated traces, but the opener
// is caller-supplied), a record the packed form cannot hold, or a
// payload of fewer than n records (ErrTraceTooShort) fails the
// materialization rather than feeding a short stream to the simulator
// silently. The stored payload does not say how many records it holds,
// so the stream grows as it is read.
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
	tr, err := packSource(spec.Name, rd, n, trace.NewPacker(0, 0))
	if err != nil {
		return nil, err
	}
	if held := uint64(tr.Packed.Len()); held < n {
		return nil, fmt.Errorf("workload %s: %w: it holds %d records, %d requested", spec.Name, ErrTraceTooShort, held, n)
	}
	return tr, nil
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

	tr, err := pack(spec, n, pin)
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
// it when it completes. Pinned entries are never evicted, but the last
// release frees their derived values (see Trace.Derive). Releasing an
// absent entry is a no-op.
func (c *TraceCache) Release(spec Spec, n uint64) {
	key := cacheKey{name: spec.Name, n: n}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	e.uses--
	if e.uses > 0 {
		return
	}
	if e.pinned {
		e.uses = 0
		if e.tr != nil {
			e.tr.dropDerived()
		}
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

// ResidentBytes sums the memory held by the resident traces: their
// packed streams and the derived values built from them (see Derive).
// A trace still building counts once its build completes.
func (c *TraceCache) ResidentBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, e := range c.entries {
		if e.tr != nil {
			n += e.tr.Bytes()
		}
	}
	return n
}

// String renders the cache counters (diagnostics).
func (c *TraceCache) String() string {
	builds, hits, resident := c.CacheStats()
	return fmt.Sprintf("tracecache{builds: %d, hits: %d, resident: %d}", builds, hits, resident)
}
