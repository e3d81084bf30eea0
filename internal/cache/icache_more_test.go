package cache

import (
	"testing"
	"testing/quick"
)

func TestPrefetchNotBeforeHonored(t *testing.T) {
	ic, _, _ := newTestICache(false)
	ic.Prefetch(50, 300, 0)
	// Advancing to just before the release time must not issue it.
	ic.AdvanceTo(49)
	if ic.Stats().PrefetchIssued != 0 {
		t.Error("prefetch issued before notBefore")
	}
	ic.AdvanceTo(50)
	if ic.Stats().PrefetchIssued != 1 {
		t.Error("prefetch not issued at notBefore")
	}
}

func TestPrefetchDuplicateInQueueCoalesced(t *testing.T) {
	ic, _, _ := newTestICache(false)
	ic.Prefetch(100, 300, 0)
	ic.Prefetch(100, 300, 0)
	if ic.PQLen() != 1 {
		t.Errorf("duplicate prefetch queued: PQ len %d", ic.PQLen())
	}
}

func TestPrefetchMetaZeroAllowed(t *testing.T) {
	ic, rec, _ := newTestICache(false)
	ic.Prefetch(0, 77, 0)
	ic.AdvanceTo(500)
	if len(rec.fills) != 1 || rec.fills[0].Meta != 0 {
		t.Fatalf("fill: %+v", rec.fills)
	}
}

func TestPQBlockedByMSHRRetries(t *testing.T) {
	// Fill every MSHR with demand misses, queue a prefetch, and check
	// it issues after a fill frees a slot.
	ic, _, _ := newTestICache(false) // 4 MSHRs, mem latency 50
	for i := uint64(0); i < 4; i++ {
		ic.DemandAccess(0, 100+i)
	}
	ic.Prefetch(0, 300, 0)
	ic.AdvanceTo(10)
	if ic.Stats().PrefetchIssued != 0 {
		t.Fatal("prefetch issued with MSHRs full")
	}
	ic.AdvanceTo(200) // all demand fills complete
	if ic.Stats().PrefetchIssued != 1 {
		t.Errorf("prefetch never issued after MSHRs freed: %+v", ic.Stats())
	}
}

func TestFillLatencyMeasured(t *testing.T) {
	ic, rec, _ := newTestICache(false)
	ic.DemandAccess(100, 42)
	ic.AdvanceTo(1000)
	if len(rec.fills) != 1 {
		t.Fatal("no fill")
	}
	f := rec.fills[0]
	if f.IssueCycle != 100 {
		t.Errorf("IssueCycle = %d", f.IssueCycle)
	}
	if f.Latency() != f.Cycle-100 {
		t.Errorf("Latency() inconsistent")
	}
}

func TestEvictFiresOnDemandReplacement(t *testing.T) {
	// Sets=4, Ways=2: three demand fills into set 0 evict the oldest.
	ic, rec, _ := newTestICache(false)
	for i, addr := range []uint64{0, 4, 8} {
		ic.DemandAccess(uint64(i)*1000, addr)
		ic.AdvanceTo(uint64(i+1) * 1000)
	}
	found := false
	for _, e := range rec.evicts {
		if e.LineAddr == 0 {
			found = true
			if e.Prefetched || !e.Accessed {
				t.Errorf("demand line evict flags: %+v", e)
			}
		}
	}
	if !found {
		t.Error("demand eviction not reported")
	}
}

func TestICacheStatsConsistency(t *testing.T) {
	// Property: after arbitrary access/prefetch interleavings,
	// Hits + Misses == Accesses, and every installed prefetch line is
	// accounted as exactly one of timely/late/wrong/still-resident.
	ic, _, _ := newTestICache(false)
	f := func(ops []uint16) bool {
		now := ic.Now()
		for _, op := range ops {
			now += uint64(op % 7)
			addr := uint64(op % 64)
			if op%3 == 0 {
				ic.Prefetch(now, addr, 0)
			} else {
				ic.DemandAccess(now, addr)
			}
		}
		ic.AdvanceTo(now + 10_000)
		st := ic.Stats()
		return st.Hits+st.Misses == st.Accesses &&
			st.PrefetchIssued == st.PrefetchFills+uint64(pendingPrefetchMSHRs(ic))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// pendingPrefetchMSHRs counts in-flight prefetch MSHR entries.
func pendingPrefetchMSHRs(c *ICache) int {
	n := 0
	for i := range c.mshr {
		if c.mshr[i].valid && c.mshr[i].isPrefetch {
			n++
		}
	}
	return n
}

func TestTimingCacheInflightFill(t *testing.T) {
	mem := &fixedLevel{latency: 10}
	l2 := NewTimingCache(TimingConfig{Sets: 4096, Ways: 2, Latency: 1}, mem)

	// Miss at t=0: tag installs immediately, data arrives at 0+1+10=11.
	ready := l2.Access(0, 42, false)
	if ready != 12 {
		t.Fatalf("miss ready = %d, want 12", ready)
	}
	if i := l2.tags.arr.Find(42, 42); i < 0 || l2.fillReady[i] != 11 {
		t.Fatalf("line 42 should be installed with fillReady=11 (slot %d)", i)
	}

	// Re-access at t=5 while the fill is still in flight: this is a tag
	// hit that must merge with the fill, not complete at hit latency.
	ready = l2.Access(5, 42, false)
	if ready != 12 {
		t.Errorf("in-flight hit ready = %d, want 12", ready)
	}
	if l2.stats.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", l2.stats.MSHRMerges)
	}

	// Access after the fill has landed: plain hit, and the in-flight
	// marker is cleared so later hits skip the merge path.
	ready = l2.Access(20, 42, false)
	if ready != 21 {
		t.Errorf("post-fill hit ready = %d, want 21", ready)
	}
	if i := l2.tags.arr.Find(42, 42); i < 0 || l2.fillReady[i] != 0 {
		t.Errorf("line 42's fillReady should clear once the fill lands (slot %d)", i)
	}
	if l2.stats.MSHRMerges != 1 {
		t.Errorf("post-fill hit counted as merge: MSHRMerges = %d", l2.stats.MSHRMerges)
	}
}
