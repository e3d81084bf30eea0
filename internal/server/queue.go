package server

import "sync"

// This file replaces the PR 4 admission channel with a tiered queue:
// one FIFO per priority tier, drained strictly highest-tier-first.
// A bronze job never delays a gold job that arrived after it, while
// jobs within a tier keep submission order. Capacity is shared across
// tiers — the queue bound protects the server's memory, the
// per-tenant quotas protect tenants from each other.

// tierQueue is a bounded FIFO per entry of tierNames. Safe for
// concurrent use.
type tierQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	tiers  [len(tierNames)][]*job // index 0 drains first
	size   int
	closed bool
}

func newTierQueue(capacity int) *tierQueue {
	q := &tierQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues j on the given tier, an index into tierNames. It
// reports false when the queue is at capacity or closed.
func (q *tierQueue) push(j *job, tier int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size >= q.cap {
		return false
	}
	q.tiers[tier] = append(q.tiers[tier], j)
	q.size++
	q.cond.Signal()
	return true
}

// pop blocks until a job is available and returns the head of the
// highest-priority non-empty tier. After close it keeps returning
// queued jobs until the queue is empty, then reports false — drain
// needs to see (and cancel) every admitted job exactly once.
func (q *tierQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return nil, false
	}
	for i := range q.tiers {
		if len(q.tiers[i]) > 0 {
			j := q.tiers[i][0]
			// Shift instead of re-slice so the backing array does not
			// pin finished jobs.
			copy(q.tiers[i], q.tiers[i][1:])
			q.tiers[i] = q.tiers[i][:len(q.tiers[i])-1]
			q.size--
			return j, true
		}
	}
	panic("server: tierQueue size/tier bookkeeping out of sync")
}

// close stops admission and wakes every blocked pop.
func (q *tierQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth reports the queued-job count.
func (q *tierQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
