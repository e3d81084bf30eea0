package harness

import (
	"context"
	"sync"
	"time"

	"entangling/internal/workload"
)

// This file is the one answer to "do I already have this cell?", for
// sweeps and for the job server alike. A Resolver resolves a
// content-addressed cell — (configuration, workload, windows), keyed
// by CellFingerprint — through three tiers: an in-process result
// cache, the durable checkpoint store, and a singleflighted run of the
// simulator through RunCell, so a cell that any number of callers want
// at once simulates exactly once. A resolver shared by several sweeps
// (cmd/paperfigs) simulates each distinct cell once per process; the
// job server shares one across every job.

// Where a resolved cell's result came from.
const (
	SourceSimulated   = "simulated"    // this caller's run of the simulator
	SourceCacheMemory = "cache-memory" // in-process result cache hit
	SourceCacheStore  = "cache-store"  // read from the checkpoint store
	SourceShared      = "shared"       // joined another caller's in-flight run
)

// memCap bounds the in-process result cache. It holds a full
// paperfigs -fig all at 5 workloads per category (992 distinct cells).
const memCap = 4096

// Cell is one simulation cell to resolve.
type Cell struct {
	Config   Configuration
	Workload workload.Spec
	Warmup   uint64
	Measure  uint64
}

// Resolved is a resolved cell: a result, or the typed error of a cell
// that produced none, and the Source* tier the result came from.
type Resolved struct {
	Result RunResult
	Err    *CellError
	Source string
}

// Resolver is the cell resolution hierarchy. Flights run on a context
// detached from their callers and refcounted by them, so one caller
// canceling never kills a run another is still waiting on; the last
// one to leave cancels it. A failed run is never cached, so a later
// resolution runs the cell again. Safe for concurrent use.
type Resolver struct {
	// base holds the trace cache, the checkpoint store, whether to
	// read it (Resume) and the cell hook; the windows come per cell.
	base Options

	mu      sync.Mutex
	mem     map[string]RunResult
	memFIFO []string
	flights map[string]*flight
}

// NewResolver builds a resolver from opt's Traces (a private cache
// when nil), Checkpoint, Resume and CellHook. Every simulated cell is
// saved to Checkpoint; the store is read as a tier only under Resume.
func NewResolver(opt Options) *Resolver {
	if opt.Traces == nil {
		opt.Traces = workload.NewTraceCache()
	}
	return &Resolver{
		base: Options{
			Traces: opt.Traces, Checkpoint: opt.Checkpoint,
			Resume: opt.Resume, CellHook: opt.CellHook,
		},
		mem:     make(map[string]RunResult),
		flights: make(map[string]*flight),
	}
}

// flight is one in-progress run of a cell.
type flight struct {
	done chan struct{}
	res  RunResult
	err  *CellError

	// subscribers counts the callers waiting; when it reaches zero
	// before the run finishes, cancel aborts the detached run.
	subscribers int
	cancel      context.CancelFunc
}

// Resolve returns the cell's result. progress, when set, sees one
// CellRestored carrying the Source of a cell a cache tier served;
// any other cell gets CellStarted, then one CellFinished or
// CellFailed, except that a cell failing before it starts (ctx
// already canceled, or its checkpoint record unreadable) gets only
// CellFailed. The caller holds the trace reservation a run needs.
func (r *Resolver) Resolve(ctx context.Context, c Cell, progress ProgressFunc) Resolved {
	fp := CellFingerprint(c.Config, c.Workload, c.Warmup, c.Measure)
	event := func(t CellEventType) CellEvent {
		return CellEvent{Type: t, Config: c.Config.Name, Workload: c.Workload.Name}
	}
	var start time.Time
	fail := func(cerr *CellError) Resolved {
		ev := event(CellFailed)
		if !start.IsZero() {
			ev.Duration = time.Since(start)
		}
		ev.Err = cerr
		progress.emit(ev)
		return Resolved{Err: cerr}
	}
	served := func(res RunResult, source string) Resolved {
		ev := event(CellRestored)
		ev.Source = source
		progress.emit(ev)
		return Resolved{Result: res, Source: source}
	}

	for {
		if err := canceled(ctx); err != nil {
			return fail(&CellError{Config: c.Config.Name, Workload: c.Workload.Name, Err: err})
		}
		if res, ok := r.memGet(fp); ok {
			return served(res, SourceCacheMemory)
		}
		if store := r.base.Checkpoint; store != nil && r.base.Resume {
			res, ok, err := store.Load(fp, c.Config.Name, c.Workload.Name)
			if err != nil {
				// Unreadable, as opposed to corrupt (quarantined and
				// reported missing): running the cell could not save
				// it either, so fail it without running it.
				return fail(&CellError{Config: c.Config.Name, Workload: c.Workload.Name, Err: err})
			}
			if ok {
				r.memPut(fp, res)
				return served(res, SourceCacheStore)
			}
		}
		if start.IsZero() {
			start = time.Now()
			progress.emit(event(CellStarted))
		}
		f, created := r.joinFlight(fp)
		if created {
			go r.runFlight(f, fp, c)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			r.leaveFlight(fp, f)
			continue // the check at the top fails the cell
		}
		r.leaveFlight(fp, f)
		if f.err != nil && f.err.Canceled() && ctx.Err() == nil {
			// The flight died with its initiator's cancellation, not
			// ours: the next pass starts (or joins) a fresh flight, or
			// hits the cache if a racer finished it.
			continue
		}
		if f.err != nil {
			return fail(f.err)
		}
		source := SourceSimulated
		if !created {
			source = SourceShared
		}
		ev := event(CellFinished)
		ev.Duration, ev.Source = time.Since(start), source
		progress.emit(ev)
		return Resolved{Result: f.res, Source: source}
	}
}

// joinFlight subscribes to the flight of the cell with fingerprint
// fp, creating it if absent; created reports whether this caller must
// run it.
func (r *Resolver) joinFlight(fp string) (f *flight, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.flights[fp]; ok {
		f.subscribers++
		return f, false
	}
	f = &flight{done: make(chan struct{}), subscribers: 1}
	r.flights[fp] = f
	return f, true
}

// leaveFlight drops one subscription; the last leaver of an
// unfinished flight cancels the detached run.
func (r *Resolver) leaveFlight(fp string, f *flight) {
	r.mu.Lock()
	f.subscribers--
	abandon := f.subscribers <= 0
	// Snapshot under the lock: runFlight publishes f.cancel while
	// holding it. A nil snapshot means the run hasn't started yet, and
	// runFlight's own subscriber check will cancel it.
	cancel := f.cancel
	if abandon && r.flights[fp] == f {
		delete(r.flights, fp)
	}
	r.mu.Unlock()
	if abandon {
		select {
		case <-f.done:
		default:
			if cancel != nil {
				cancel()
			}
		}
	}
}

// runFlight simulates the cell on a detached context, canceled only
// when every subscriber leaves. RunCell checkpoints a success; it is
// then published to the in-process cache.
func (r *Resolver) runFlight(f *flight, fp string, c Cell) {
	ctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	f.cancel = cancel
	alive := f.subscribers > 0
	r.mu.Unlock()
	defer cancel()
	if !alive {
		// Every subscriber left between joinFlight and here.
		cancel()
	}

	opt := r.base
	opt.Warmup, opt.Measure = c.Warmup, c.Measure
	res, cerr := RunCell(ctx, c.Config, c.Workload, opt)
	if cerr != nil {
		f.err = cerr
	} else {
		f.res = res
		r.memPut(fp, res)
	}
	// Retire the flight before publishing completion: later callers
	// take the cache path for successes and a fresh flight for
	// failures, so a failed run is never served as a sticky error.
	r.mu.Lock()
	if r.flights[fp] == f {
		delete(r.flights, fp)
	}
	r.mu.Unlock()
	close(f.done)
}

func (r *Resolver) memGet(fp string) (RunResult, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.mem[fp]
	return res, ok
}

// memPut caches a successful result, evicting the oldest-inserted
// entries past memCap (results are immutable and re-derivable, so
// FIFO is good enough; the durable tier below never evicts).
func (r *Resolver) memPut(fp string, res RunResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.mem[fp]; ok {
		return
	}
	r.mem[fp] = res
	r.memFIFO = append(r.memFIFO, fp)
	for len(r.memFIFO) > memCap {
		delete(r.mem, r.memFIFO[0])
		r.memFIFO = r.memFIFO[1:]
	}
}
