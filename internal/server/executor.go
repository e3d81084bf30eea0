package server

import (
	"context"
	"fmt"

	"entangling/internal/harness"
)

// This file is the resolver's flight machinery: the singleflight tier
// of the resolution hierarchy defined in dispatch.go. A cell that
// misses the in-process cache and the checkpoint store joins (or
// starts) a flight — one in-progress simulation of the cell, shared by
// every subscriber that arrived before it finished. Flights run on a
// detached context refcounted by their subscribers, so one job
// canceling never kills a run another job is still waiting on.

// flight is one in-progress resolution of a cell.
type flight struct {
	done chan struct{}
	res  harness.RunResult
	err  *harness.CellError

	// subscribers is the refcount of jobs waiting; when it reaches
	// zero before the run finishes, cancel aborts the detached run
	// (nobody wants the answer anymore).
	subscribers int
	cancel      context.CancelFunc
}

// resolve obtains the cell's result for one subscriber.
func (x *resolver) resolve(ctx context.Context, cell cellSpec) cellResult {
	canceledOutcome := func() cellResult {
		return cellResult{Err: &harness.CellError{
			Config: cell.Config.Name, Workload: cell.Workload.Name,
			Err: fmt.Errorf("%w: %v", harness.ErrCellCanceled, context.Cause(ctx)),
		}}
	}

	for {
		if ctx.Err() != nil {
			return canceledOutcome()
		}
		// 1. In-process result cache.
		if res, ok := x.memGet(cell.Fingerprint); ok {
			return cellResult{Result: res, Source: SourceCacheMemory}
		}
		// 2. Durable checkpoint store: a warm restart serves repeat
		// jobs from here with zero re-simulation.
		if store := x.base.Checkpoint; store != nil {
			if res, ok, err := store.Load(cell.Fingerprint, cell.Config.Name, cell.Workload.Name); err == nil && ok {
				x.memPut(cell.Fingerprint, res)
				return cellResult{Result: res, Source: SourceCacheStore}
			}
		}
		// 3. Singleflight: join the in-progress run, or start it.
		f, created := x.joinFlight(cell.Fingerprint)
		shared := !created
		if created {
			go x.runFlight(f, cell)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			x.leaveFlight(cell.Fingerprint, f)
			return canceledOutcome()
		}
		x.leaveFlight(cell.Fingerprint, f)
		if f.err != nil && f.err.Canceled() && ctx.Err() == nil {
			// The flight died with its initiator's cancellation, not
			// ours: loop — the next pass starts (or joins) a fresh
			// flight, or hits the cache if a racer finished it.
			continue
		}
		if f.err != nil {
			return cellResult{Err: f.err}
		}
		source := SourceSimulated
		if shared {
			source = SourceShared
		}
		return cellResult{Result: f.res, Source: source}
	}
}

// joinFlight subscribes to the flight of the cell with fingerprint
// fp, creating it if absent; created reports whether this caller must
// run it.
func (x *resolver) joinFlight(fp string) (f *flight, created bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if f, ok := x.flights[fp]; ok {
		f.subscribers++
		return f, false
	}
	f = &flight{done: make(chan struct{}), subscribers: 1}
	x.flights[fp] = f
	return f, true
}

// leaveFlight drops one subscription; the last leaver of an
// unfinished flight cancels the detached run.
func (x *resolver) leaveFlight(fp string, f *flight) {
	x.mu.Lock()
	f.subscribers--
	abandon := f.subscribers <= 0
	// Snapshot under the lock: runFlight publishes f.cancel while
	// holding it. A nil snapshot means the run hasn't started yet, and
	// runFlight's own subscriber check will cancel it.
	cancel := f.cancel
	if abandon && x.flights[fp] == f {
		delete(x.flights, fp)
	}
	x.mu.Unlock()
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

// runFlight simulates the cell on a detached context (canceled only
// when every subscriber leaves). Successful results are published to
// the in-process cache; the harness has already checkpointed them to
// the durable store.
func (x *resolver) runFlight(f *flight, cell cellSpec) {
	ctx, cancel := context.WithCancel(context.Background())
	x.mu.Lock()
	f.cancel = cancel
	alive := f.subscribers > 0
	x.mu.Unlock()
	defer cancel()
	if !alive {
		// Every subscriber left between joinFlight and here.
		cancel()
	}

	res, cerr := x.simulate(ctx, cell)
	if cerr != nil {
		f.err = cerr
	} else {
		f.res = res
		x.memPut(cell.Fingerprint, res)
	}
	// Retire the flight before publishing completion: later resolvers
	// take the cache path for successes and a fresh flight for
	// failures, so a failed run is never served as a sticky cached
	// error.
	x.mu.Lock()
	if x.flights[cell.Fingerprint] == f {
		delete(x.flights, cell.Fingerprint)
	}
	x.mu.Unlock()
	close(f.done)
}

func (x *resolver) memGet(fp string) (harness.RunResult, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	r, ok := x.mem[fp]
	return r, ok
}

// memPut caches a successful result, evicting oldest-inserted entries
// past the cap (results are immutable and re-derivable, so FIFO is
// good enough — the durable tier below never evicts).
func (x *resolver) memPut(fp string, r harness.RunResult) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.mem[fp]; ok {
		return
	}
	x.mem[fp] = r
	x.memFIFO = append(x.memFIFO, fp)
	for len(x.memFIFO) > memCap {
		evict := x.memFIFO[0]
		x.memFIFO = x.memFIFO[1:]
		delete(x.mem, evict)
	}
}
