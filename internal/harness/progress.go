package harness

import "time"

// This file defines the sweep progress hook: a per-cell lifecycle
// event stream emitted by Resolver.Resolve, and so by every sweep.
// cmd/paperfigs -progress, the benchmark's per-cell timings and the job
// server (each job's SSE events and cell counts) consume it, so long
// sweeps are observable while they run instead of only after they
// finish. A cell a cache tier serves emits one
// CellRestored carrying its Source; a cell that runs emits CellStarted,
// then one CellFinished or CellFailed; a cell that fails before it
// starts (canceled, or its checkpoint record unreadable) emits only
// CellFailed.

// CellEventType labels a cell lifecycle transition.
type CellEventType string

// Cell lifecycle transitions, in the order a cell can traverse them.
const (
	// CellRestored: a cache tier served the cell (Source says which)
	// and it never ran.
	CellRestored CellEventType = "restored"
	// CellStarted: the cell began running.
	CellStarted CellEventType = "started"
	// CellFinished: the cell completed and its result was recorded
	// (and checkpointed, when a store is configured).
	CellFinished CellEventType = "finished"
	// CellFailed: the cell degraded to a *CellError (it failed, or
	// was canceled).
	CellFailed CellEventType = "failed"
)

// CellEvent reports one cell lifecycle transition of a running sweep.
type CellEvent struct {
	Type     CellEventType
	Config   string
	Workload string
	// Duration is the cell's wall-clock time so far; set on finished
	// and failed events.
	Duration time.Duration
	// Err is the *CellError of a failed event, nil otherwise.
	Err error
	// Source is the Source* tier of a restored or finished cell.
	Source string
}

// ProgressFunc observes cell lifecycle transitions. A sweep calls it
// from its worker goroutines, so implementations must be safe for
// concurrent use and should return quickly — a slow observer stalls
// the sweep.
type ProgressFunc func(CellEvent)

// emit calls the hook if one is installed.
func (f ProgressFunc) emit(ev CellEvent) {
	if f != nil {
		f(ev)
	}
}
