package server

import (
	"encoding/json"
	"sync"
)

// This file implements the per-job progress log behind the SSE
// endpoint. Every lifecycle transition of a job is appended as a
// sequence-numbered event; any number of streaming clients replay the
// log from any position (Last-Event-ID resume) and then follow the
// live tail, so a client that connects late — or reconnects after a
// network blip — sees exactly the same ordered history as one that
// watched from the start.

// Event types, in the order a job can emit them.
const (
	EventJobQueued    = "job.queued"
	EventJobStarted   = "job.started"
	EventCellStarted  = "cell.started"
	EventCellRetried  = "cell.retried"
	EventCellFinished = "cell.finished"
	EventCellFailed   = "cell.failed"
	EventJobDone      = "job.done"
)

// Cell result sources: how a finished cell's result was obtained.
const (
	SourceSimulated   = "simulated"    // this server ran the simulation
	SourceCacheMemory = "cache-memory" // in-process result cache hit
	SourceCacheStore  = "cache-store"  // restored from the checkpoint store
	SourceShared      = "shared"       // joined another job's in-flight resolution
	SourceFleet       = "fleet"        // a fleet worker ran it for this coordinator
	SourceFleetStolen = "fleet-stolen" // a non-primary worker won it (steal or failover)
)

// Event is one progress record of a job, serialized as the SSE data
// payload. Seq is the stream position (the SSE id), strictly
// increasing from 1 within a job.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`

	// Cell identity, set on cell.* events.
	Config   string `json:"config,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Attempt is the 1-based attempt number on cell.retried.
	Attempt int `json:"attempt,omitempty"`
	// Source says where a cell.finished result came from.
	Source string `json:"source,omitempty"`
	// ElapsedMS is the cell's wall-clock on cell.finished/cell.failed.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Error carries the failure text on cell.failed and failed job.done.
	Error string `json:"error,omitempty"`

	// Done/Total report job progress (cells terminal so far) on cell
	// terminal events and job.done.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// State is the job's terminal state on job.done.
	State string `json:"state,omitempty"`
}

func (e Event) data() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(err) // plain struct of scalars cannot fail to marshal
	}
	return b
}

// eventLog is an append-only, fan-out event sequence. Appends assign
// Seq; readers poll snapshotAfter and block on the returned wake
// channel, which is closed (and replaced) on every append — a
// broadcast without per-subscriber bookkeeping, so an abandoned SSE
// client leaks nothing.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{}
	closed bool
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append records the event, assigning its sequence number.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	e.Seq = len(l.events) + 1
	l.events = append(l.events, e)
	close(l.wake)
	l.wake = make(chan struct{})
	l.mu.Unlock()
}

// close marks the log complete (the job reached a terminal state and
// will emit nothing further) and wakes every waiting reader.
func (l *eventLog) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.wake)
		l.wake = make(chan struct{})
	}
	l.mu.Unlock()
}

// snapshotAfter returns the events with Seq > after, a channel that is
// closed on the next append (valid only when no events were returned),
// and whether the log is complete.
func (l *eventLog) snapshotAfter(after int) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var tail []Event
	if after < len(l.events) {
		if after < 0 {
			after = 0
		}
		tail = l.events[after:]
	}
	return tail, l.wake, l.closed
}
