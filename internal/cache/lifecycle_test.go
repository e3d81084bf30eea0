package cache

import (
	"math/rand/v2"
	"slices"
	"testing"

	"entangling/internal/stats"
)

// feedbackRecorder captures lifecycle feedback for assertions.
type feedbackRecorder struct {
	events []PrefetchFeedback
}

func (f *feedbackRecorder) OnPrefetchFeedback(fb PrefetchFeedback) {
	f.events = append(f.events, fb)
}

func TestLifecycleTimelyLead(t *testing.T) {
	tr := NewLifecycleTracker(nil)
	tr.OnFill(FillEvent{Cycle: 100, LineAddr: 7, WasPrefetch: true, Demanded: false})
	tr.OnAccess(AccessEvent{Cycle: 140, LineAddr: 7, Hit: true, WasPrefetched: true, FirstUse: true})
	lc := tr.Lifecycle()
	if lc.Timely != 1 || lc.LeadCycles != 40 {
		t.Errorf("timely=%d lead=%d, want 1/40", lc.Timely, lc.LeadCycles)
	}
	if tr.LeadHistogram().Total() != 1 || tr.LeadHistogram().Buckets[40] != 1 {
		t.Error("lead histogram not recorded at 40")
	}
	// A repeat hit (not FirstUse) must not double-count.
	tr.OnAccess(AccessEvent{Cycle: 150, LineAddr: 7, Hit: true, WasPrefetched: true, FirstUse: false})
	if tr.Lifecycle().Timely != 1 {
		t.Error("non-first-use hit counted as timely")
	}
}

func TestLifecycleLateSavedShortAndFeedback(t *testing.T) {
	sink := &feedbackRecorder{}
	tr := NewLifecycleTracker(sink)
	// Prefetch issued at 100, fill ready at 300; demand arrives at 250:
	// 150 cycles of latency were hidden, 50 remained exposed.
	tr.OnAccess(AccessEvent{
		Cycle: 250, LineAddr: 9, MSHRHit: true, LatePrefetch: true,
		IssueCycle: 100, ReadyCycle: 300, Meta: 42,
	})
	lc := tr.Lifecycle()
	if lc.Late != 1 || lc.LateCyclesSaved != 150 || lc.LateCyclesShort != 50 {
		t.Errorf("late=%d saved=%d short=%d, want 1/150/50", lc.Late, lc.LateCyclesSaved, lc.LateCyclesShort)
	}
	if len(sink.events) != 1 {
		t.Fatalf("feedback events = %d, want 1", len(sink.events))
	}
	fb := sink.events[0]
	if fb.Kind != FeedbackLate || fb.LineAddr != 9 || fb.Meta != 42 || fb.Cycles != 50 {
		t.Errorf("late feedback = %+v", fb)
	}
}

func TestLifecycleEarlyVsInaccurate(t *testing.T) {
	sink := &feedbackRecorder{}
	tr := NewLifecycleTracker(sink)
	// Two prefetched lines filled, both evicted unused.
	tr.OnFill(FillEvent{Cycle: 10, LineAddr: 1, WasPrefetch: true})
	tr.OnFill(FillEvent{Cycle: 10, LineAddr: 2, WasPrefetch: true})
	tr.OnEvict(EvictEvent{Cycle: 60, LineAddr: 1, Prefetched: true, Accessed: false})
	tr.OnEvict(EvictEvent{Cycle: 60, LineAddr: 2, Prefetched: true, Accessed: false})
	// Line 1 is demanded again later: early, not inaccurate.
	tr.OnAccess(AccessEvent{Cycle: 100, LineAddr: 1})
	lc := tr.Lifecycle()
	if lc.EvictedUnused != 2 || lc.EarlyEvicted != 1 || lc.Inaccurate() != 1 {
		t.Errorf("evicted=%d early=%d inaccurate=%d, want 2/1/1",
			lc.EvictedUnused, lc.EarlyEvicted, lc.Inaccurate())
	}
	// A second demand to the same line must not count early twice.
	tr.OnAccess(AccessEvent{Cycle: 110, LineAddr: 1})
	if tr.Lifecycle().EarlyEvicted != 1 {
		t.Error("redemand counted early twice")
	}
	// Useless feedback carried the residency time.
	if len(sink.events) != 2 || sink.events[0].Kind != FeedbackUseless || sink.events[0].Cycles != 50 {
		t.Errorf("useless feedback = %+v", sink.events)
	}
	// Demand-accessed evictions are not part of the breakdown.
	tr.OnEvict(EvictEvent{Cycle: 200, LineAddr: 3, Prefetched: true, Accessed: true})
	if tr.Lifecycle().EvictedUnused != 2 {
		t.Error("accessed eviction counted as unused")
	}
}

func TestLifecycleEvictedSetBounded(t *testing.T) {
	tr := NewLifecycleTracker(nil)
	for i := uint64(0); i < trackedEvictCap+100; i++ {
		tr.OnEvict(EvictEvent{Cycle: i, LineAddr: i, Prefetched: true, Accessed: false})
	}
	if n := countFlag(tr, lineEvicted); n > trackedEvictCap || len(tr.ring) > trackedEvictCap {
		t.Fatalf("evicted set unbounded: %d / %d", n, len(tr.ring))
	}
	// The oldest entries were displaced; a redemand of one of them is
	// (conservatively) no longer counted as early.
	tr.OnAccess(AccessEvent{Cycle: 1 << 20, LineAddr: 0})
	if tr.Lifecycle().EarlyEvicted != 0 {
		t.Error("displaced entry still tracked")
	}
	// A recent one still is.
	tr.OnAccess(AccessEvent{Cycle: 1 << 20, LineAddr: trackedEvictCap + 99})
	if tr.Lifecycle().EarlyEvicted != 1 {
		t.Error("recent entry lost")
	}
}

// countFlag returns the number of tracked lines with flag f set.
func countFlag(tr *LifecycleTracker, f uint8) int {
	n := 0
	for _, s := range tr.lines.slots {
		if s.flags&f != 0 {
			n++
		}
	}
	return n
}

// TestLifecycleRedemandedLineRingEntries pins the FIFO displacement of
// a line that is remembered twice. A demand removes a line from the
// evicted-unused set but not from the ring, so evicting it unused
// again gives it a second ring entry, and the older entry's
// displacement removes it from the set while the newer one remains.
func TestLifecycleRedemandedLineRingEntries(t *testing.T) {
	evictUnused := func(tr *LifecycleTracker, line uint64) {
		tr.OnEvict(EvictEvent{LineAddr: line, Prefetched: true})
	}
	redemand := func(tr *LifecycleTracker, line uint64) uint64 {
		before := tr.Lifecycle().EarlyEvicted
		tr.OnAccess(AccessEvent{LineAddr: line})
		return tr.Lifecycle().EarlyEvicted - before
	}
	const l = 1 << 40 // outside the filler lines 0..trackedEvictCap

	tr := NewLifecycleTracker(nil)
	evictUnused(tr, l) // ring entry 0
	if redemand(tr, l) != 1 {
		t.Fatal("first redemand not counted early")
	}
	evictUnused(tr, l) // ring entry 1
	for i := uint64(0); i < trackedEvictCap-2; i++ {
		evictUnused(tr, i) // fill the ring
	}
	if got := countFlag(tr, lineEvicted); got != trackedEvictCap-1 {
		t.Fatalf("%d lines tracked before the ring wraps, want %d", got, trackedEvictCap-1)
	}
	evictUnused(tr, 1<<41) // displaces entry 0, the older copy of l
	if got := countFlag(tr, lineEvicted); got != trackedEvictCap-1 {
		t.Fatalf("%d lines tracked after the wrap, want %d", got, trackedEvictCap-1)
	}
	if redemand(tr, l) != 0 {
		t.Error("line still tracked after its older ring entry was displaced")
	}

	// Remembered again exactly when its own older entry is displaced,
	// the line stays tracked under the entry that replaces it.
	tr = NewLifecycleTracker(nil)
	evictUnused(tr, l) // ring entry 0
	redemand(tr, l)
	for i := uint64(0); i < trackedEvictCap-1; i++ {
		evictUnused(tr, i)
	}
	evictUnused(tr, l) // displaces entry 0 and takes its place
	if redemand(tr, l) != 1 {
		t.Error("line remembered over its own ring entry was lost")
	}
}

// TestLifecycleMatchesMaps replays a random event stream through the
// tracker and through the map-based model it replaces, and checks both
// line sets, the counters and every feedback event agree.
func TestLifecycleMatchesMaps(t *testing.T) {
	sink := &feedbackRecorder{}
	tr := NewLifecycleTracker(sink)
	var (
		ref     stats.PrefetchLifecycle
		refFB   []PrefetchFeedback
		fills   = map[uint64]uint64{}
		evicted = map[uint64]bool{}
		ring    []uint64
		ringPos int
	)
	rng := rand.New(rand.NewPCG(1, 2))
	const lines = 3 * trackedEvictCap
	for cycle := uint64(1); cycle < 300_000; cycle++ {
		line := rng.Uint64N(lines)
		switch rng.IntN(3) {
		case 0:
			tr.OnFill(FillEvent{Cycle: cycle, LineAddr: line, WasPrefetch: true})
			fills[line] = cycle
		case 1:
			e := AccessEvent{Cycle: cycle, LineAddr: line, Hit: true, FirstUse: rng.IntN(2) == 0}
			tr.OnAccess(e)
			if evicted[line] {
				delete(evicted, line)
				ref.EarlyEvicted++
			}
			if e.FirstUse {
				ref.Timely++
				if f, ok := fills[line]; ok {
					ref.LeadCycles += cycle - f
					delete(fills, line)
				}
			}
		case 2:
			accessed := rng.IntN(4) == 0
			tr.OnEvict(EvictEvent{Cycle: cycle, LineAddr: line, Prefetched: true, Accessed: accessed})
			f, had := fills[line]
			delete(fills, line)
			if accessed {
				continue
			}
			ref.EvictedUnused++
			if !evicted[line] {
				if len(ring) < trackedEvictCap {
					ring = append(ring, line)
				} else {
					delete(evicted, ring[ringPos])
					ring[ringPos] = line
					ringPos = (ringPos + 1) % trackedEvictCap
				}
				evicted[line] = true
			}
			var resident uint64
			if had {
				resident = cycle - f
			}
			refFB = append(refFB, PrefetchFeedback{Kind: FeedbackUseless, LineAddr: line, Cycles: resident})
		}
	}
	if got := tr.Lifecycle(); got != ref {
		t.Errorf("lifecycle %+v, want %+v", got, ref)
	}
	if !slices.Equal(sink.events, refFB) {
		t.Errorf("feedback differs: %d events, want %d", len(sink.events), len(refFB))
	}
	if countFlag(tr, lineFilled) != len(fills) || countFlag(tr, lineEvicted) != len(evicted) {
		t.Fatalf("tracked %d filled / %d evicted lines, want %d / %d",
			countFlag(tr, lineFilled), countFlag(tr, lineEvicted), len(fills), len(evicted))
	}
	for line := uint64(0); line < lines; line++ {
		i := tr.lines.get(line, lineFilled|lineEvicted)
		var flags uint8
		if i >= 0 {
			flags = tr.lines.slots[i].flags
		}
		_, filled := fills[line]
		if (flags&lineFilled != 0) != filled || (flags&lineEvicted != 0) != evicted[line] || (i >= 0) != (flags != 0) {
			t.Fatalf("line %d: flags %b, want filled %v evicted %v", line, flags, filled, evicted[line])
		}
		if filled && tr.lines.slots[i].fill != fills[line] {
			t.Fatalf("line %d: fill cycle %d, want %d", line, tr.lines.slots[i].fill, fills[line])
		}
	}
}

// TestLifecycleAgainstICache drives a real ICache with the tracker as
// listener and cross-checks tracker counters against the cache's own.
func TestLifecycleAgainstICache(t *testing.T) {
	tr := NewLifecycleTracker(nil)
	next := &fixedLevel{latency: 100}
	c := NewICache(ICacheConfig{Sets: 4, Ways: 2, Latency: 4, MSHRs: 4, PQSize: 8}, next, tr)

	// Timely: prefetch line 5, let it fill, demand it.
	c.Prefetch(0, 5, 0)
	c.AdvanceTo(500)
	c.DemandAccess(600, 5)
	// Late: prefetch line 6 and demand it while in flight.
	c.Prefetch(600, 6, 0)
	c.AdvanceTo(610)
	c.DemandAccess(620, 6)
	// Unused: prefetch lines that conflict-evict each other in set 0
	// (sets=4, so lines 8, 16, 24 share a set with 2 ways).
	for _, l := range []uint64{8, 16, 24} {
		c.Prefetch(700, l, 0)
		c.AdvanceTo(900)
	}
	c.AdvanceTo(2000)

	lc := tr.Lifecycle()
	st := c.Stats()
	if lc.Timely != st.TimelyPrefetchHits {
		t.Errorf("tracker timely %d != cache %d", lc.Timely, st.TimelyPrefetchHits)
	}
	if lc.Late != st.LatePrefetches {
		t.Errorf("tracker late %d != cache %d", lc.Late, st.LatePrefetches)
	}
	if lc.EvictedUnused != st.WrongPrefetches {
		t.Errorf("tracker evicted-unused %d != cache wrong %d", lc.EvictedUnused, st.WrongPrefetches)
	}
	if lc.Timely != 1 || lc.Late != 1 {
		t.Errorf("timely=%d late=%d, want 1/1", lc.Timely, lc.Late)
	}
	if lc.LateCyclesSaved == 0 {
		t.Error("late prefetch saved no cycles")
	}
}
