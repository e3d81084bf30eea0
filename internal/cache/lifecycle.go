package cache

import (
	"math/bits"

	"entangling/internal/stats"
)

// This file implements the prefetch-lifecycle tracker: a pure observer
// of the L1I event stream that classifies every prefetch by its fate
// (timely / late / early-evicted / inaccurate) and feeds late/useless
// outcomes back to the prefetcher, so adaptive policies (degree or
// distance throttling) have a hardware-plausible signal to work with.
// The tracker never influences simulated timing.

// PrefetchFeedbackKind distinguishes lifecycle feedback events.
type PrefetchFeedbackKind uint8

const (
	// FeedbackLate: a demand arrived while the prefetch was in flight;
	// Cycles is the latency the prefetch failed to hide.
	FeedbackLate PrefetchFeedbackKind = iota
	// FeedbackUseless: the prefetched line was evicted without serving
	// a demand access; Cycles is the time it sat resident.
	FeedbackUseless
)

// PrefetchFeedback is one lifecycle outcome delivered to the
// prefetcher that issued the request.
type PrefetchFeedback struct {
	Kind     PrefetchFeedbackKind
	LineAddr uint64
	// Meta is the opaque metadata the prefetcher attached to the
	// request.
	Meta uint64
	// Cycles quantifies the outcome (see the Kind constants).
	Cycles uint64
}

// FeedbackSink receives prefetch lifecycle feedback. Prefetchers
// implement it (prefetch.Base provides a no-op) to observe their own
// late and useless prefetches.
type FeedbackSink interface {
	OnPrefetchFeedback(PrefetchFeedback)
}

// trackedEvictCap bounds the evicted-unused set the tracker keeps for
// early-vs-inaccurate classification. Entries dropped at the cap count
// as inaccurate, which is the conservative direction.
const trackedEvictCap = 1 << 15

// LifecycleTracker is a cache.Listener that maintains the
// PrefetchLifecycle breakdown and a fill-to-use lead histogram.
type LifecycleTracker struct {
	lc   stats.PrefetchLifecycle
	lead *stats.Histogram
	sink FeedbackSink

	// lines tracks two line sets. lineFilled marks resident,
	// not-yet-used prefetched lines, with their fill cycle (bounded by
	// cache capacity). lineEvicted marks prefetched lines evicted
	// unused; a later demand to one of them reclassifies it from
	// inaccurate to early-evicted. ring evicts the oldest lineEvicted
	// entry once trackedEvictCap is reached.
	lines   lineTable
	ring    []uint64
	ringPos int
}

// NewLifecycleTracker builds a tracker. sink may be nil.
func NewLifecycleTracker(sink FeedbackSink) *LifecycleTracker {
	return &LifecycleTracker{
		// 512 one-cycle buckets cover the fill-to-use leads the DRAM
		// latency can produce; longer leads land in the overflow.
		lead: stats.NewHistogram(0, 511),
		sink: sink,
	}
}

// Lifecycle returns the current counter block (copy).
func (t *LifecycleTracker) Lifecycle() stats.PrefetchLifecycle { return t.lc }

// LeadHistogram exposes the fill-to-first-use lead distribution of
// timely prefetches (cycles).
func (t *LifecycleTracker) LeadHistogram() *stats.Histogram { return t.lead }

// OnAccess implements Listener.
func (t *LifecycleTracker) OnAccess(e AccessEvent) {
	if i := t.lines.get(e.LineAddr, lineFilled|lineEvicted); i >= 0 {
		l := &t.lines.slots[i]
		var done uint8
		// A demand for a line we saw evicted unused: the prefetch was
		// early, not wrong.
		if l.flags&lineEvicted != 0 {
			done |= lineEvicted
			t.lc.EarlyEvicted++
		}
		if e.Hit && e.FirstUse && l.flags&lineFilled != 0 {
			done |= lineFilled
			lead := e.Cycle - l.fill
			t.lc.LeadCycles += lead
			t.lead.Add(int(lead))
		}
		if done != 0 {
			t.lines.drop(i, done)
		}
	}
	switch {
	case e.Hit && e.FirstUse:
		t.lc.Timely++
	case e.MSHRHit && e.LatePrefetch:
		t.lc.Late++
		if e.Cycle >= e.IssueCycle {
			t.lc.LateCyclesSaved += e.Cycle - e.IssueCycle
		}
		var short uint64
		if e.ReadyCycle > e.Cycle {
			short = e.ReadyCycle - e.Cycle
		}
		t.lc.LateCyclesShort += short
		if t.sink != nil {
			t.sink.OnPrefetchFeedback(PrefetchFeedback{
				Kind:     FeedbackLate,
				LineAddr: e.LineAddr,
				Meta:     e.Meta,
				Cycles:   short,
			})
		}
	}
}

// OnFill implements Listener.
func (t *LifecycleTracker) OnFill(e FillEvent) {
	if e.WasPrefetch && !e.Demanded {
		l := &t.lines.slots[t.lines.put(e.LineAddr)]
		l.flags |= lineFilled
		l.fill = e.Cycle
	}
}

// OnEvict implements Listener.
func (t *LifecycleTracker) OnEvict(e EvictEvent) {
	var fillCycle uint64
	hadFill := false
	if i := t.lines.get(e.LineAddr, lineFilled); i >= 0 {
		fillCycle, hadFill = t.lines.slots[i].fill, true
		t.lines.drop(i, lineFilled)
	}
	if !e.Prefetched || e.Accessed {
		return
	}
	t.lc.EvictedUnused++
	t.remember(e.LineAddr)
	if t.sink != nil {
		var resident uint64
		if hadFill && e.Cycle > fillCycle {
			resident = e.Cycle - fillCycle
		}
		t.sink.OnPrefetchFeedback(PrefetchFeedback{
			Kind:     FeedbackUseless,
			LineAddr: e.LineAddr,
			Meta:     e.Meta,
			Cycles:   resident,
		})
	}
}

// remember adds line to the evicted-unused set, displacing the oldest
// ring entry at capacity. A line removed by a demand keeps its ring
// entry, so a line remembered again holds two, and the older one's
// displacement removes it from the set.
func (t *LifecycleTracker) remember(line uint64) {
	if t.lines.get(line, lineEvicted) >= 0 {
		return
	}
	if len(t.ring) < trackedEvictCap {
		t.ring = append(t.ring, line)
	} else {
		if i := t.lines.get(t.ring[t.ringPos], lineEvicted); i >= 0 {
			t.lines.drop(i, lineEvicted)
		}
		t.ring[t.ringPos] = line
		t.ringPos = (t.ringPos + 1) % trackedEvictCap
	}
	t.lines.slots[t.lines.put(line)].flags |= lineEvicted
}

// Line-table flags: the sets a tracked line belongs to.
const (
	lineFilled uint8 = 1 << iota
	lineEvicted
)

// lineTable is an open-addressed, linear-probing table keyed by line
// address, holding the tracker's two line sets. A slot is in use while
// any flag is set; clearing the last one frees it by backward-shift
// deletion, so no tombstones build up. It doubles at half load.
type lineTable struct {
	slots []lineSlot // power-of-two length
	shift uint       // 64 - log2(len(slots))
	used  int
}

type lineSlot struct {
	line  uint64
	fill  uint64 // fill cycle, meaningful with lineFilled
	flags uint8
}

// home returns line's first probe position.
func (t *lineTable) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> t.shift)
}

// get returns line's slot if it carries any flag in f, else -1.
func (t *lineTable) get(line uint64, f uint8) int {
	if t.used == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; {
		case s.flags == 0:
			return -1
		case s.line == line:
			if s.flags&f == 0 {
				return -1
			}
			return i
		}
	}
}

// put returns line's slot, claiming a free one with no flags set when
// line is absent; the caller sets a flag before the next call.
func (t *lineTable) put(line uint64) int {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(line)
	for ; t.slots[i].flags != 0; i = (i + 1) & mask {
		if t.slots[i].line == line {
			return i
		}
	}
	t.slots[i] = lineSlot{line: line}
	t.used++
	return i
}

// grow doubles the table (to 64 slots at first) and reinserts every
// slot in use.
func (t *lineTable) grow() {
	old := t.slots
	n := max(2*len(old), 64)
	t.slots, t.shift, t.used = make([]lineSlot, n), uint(64-bits.TrailingZeros(uint(n))), 0
	for _, s := range old {
		if s.flags != 0 {
			t.slots[t.put(s.line)] = s
		}
	}
}

// drop clears flag f on slot i, freeing the slot once no flag is left.
func (t *lineTable) drop(i int, f uint8) {
	t.slots[i].flags &^= f
	if t.slots[i].flags != 0 {
		return
	}
	// Backward-shift deletion: pull each later slot of the probe run
	// into the hole unless its home lies cyclically in (hole, slot].
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].flags != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].line)
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lineSlot{}
	t.used--
}
