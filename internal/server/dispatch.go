package server

import (
	"context"
	"sync"

	"entangling/internal/harness"
	"entangling/internal/workload"
)

// This file defines how the job server resolves one content-addressed
// cell — (configuration, workload, windows) — to its result. The
// resolver walks three tiers: the in-process result cache, the durable
// checkpoint store, and a singleflighted run of the simulator through
// harness.RunCell (executor.go), so identical cells resolve exactly
// once per node no matter how many jobs want them. The job that asks
// for a cell holds the trace reservation (see Server.runJob); the
// resolver only reads the trace.

// memCap bounds the resolver's in-process result cache.
const memCap = 4096

// cellSpec fully describes one simulation cell to resolve. Fingerprint
// is the cell's content address (harness.CellFingerprint over Config,
// Workload, Warmup and Measure).
type cellSpec struct {
	Config      harness.Configuration
	Workload    workload.Spec
	Warmup      uint64
	Measure     uint64
	Fingerprint string
}

// cellResult is a resolved cell: a result or a typed cell error, plus
// where the result came from (the Source* constants in events.go).
type cellResult struct {
	Result harness.RunResult
	Err    *harness.CellError
	Source string
}

// resolver implements the content-addressed resolution hierarchy.
// Resolving a cell walks the in-process result cache, the durable
// checkpoint store, and finally a singleflighted "flight" that runs
// the simulator exactly once no matter how many concurrent subscribers
// want the cell. Flights run on a detached context refcounted by their
// subscribers, so one job canceling never kills a run another job is
// still waiting on. The resolver is safe for concurrent use.
type resolver struct {
	// base is the harness.Options every run starts from: the shared
	// trace cache and the checkpoint store (also the durable tier read
	// before running).
	base harness.Options

	mu      sync.Mutex
	mem     map[string]harness.RunResult
	memFIFO []string
	flights map[string]*flight
}

// newResolver builds a resolver over base; the windows are filled in
// per cell.
func newResolver(base harness.Options) *resolver {
	return &resolver{
		base:    base,
		mem:     make(map[string]harness.RunResult),
		flights: make(map[string]*flight),
	}
}

// simulate runs one cell that missed every cache tier, checkpointing
// it inside the harness when a store is set. The context is detached
// from any single subscriber.
func (x *resolver) simulate(ctx context.Context, cell cellSpec) (harness.RunResult, *harness.CellError) {
	opt := x.base
	opt.Warmup, opt.Measure = cell.Warmup, cell.Measure
	return harness.RunCell(ctx, cell.Config, cell.Workload, opt)
}
