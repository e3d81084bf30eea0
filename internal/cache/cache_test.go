package cache

import (
	"testing"
	"testing/quick"
)

// fixedLevel is a Level with constant latency, recording accesses.
type fixedLevel struct {
	latency  uint64
	accesses []uint64
	pfCount  int
}

func (f *fixedLevel) Access(now uint64, lineAddr uint64, prefetch bool) uint64 {
	f.accesses = append(f.accesses, lineAddr)
	if prefetch {
		f.pfCount++
	}
	return now + f.latency
}

// TestArrayLRU checks that a level's tag array evicts its least
// recently used line: a hit refreshes recency, so the line not
// touched since goes first.
func TestArrayLRU(t *testing.T) {
	l2 := NewTimingCache(TimingConfig{Sets: 1, Ways: 2, Latency: 1}, &fixedLevel{latency: 10})
	l2.Access(0, 1, false)
	l2.Access(10, 2, false)
	// Touch 1 so 2 becomes LRU.
	l2.Access(20, 1, false)
	l2.Access(30, 3, false)
	if l2.Contains(2) {
		t.Error("LRU line 2 not evicted")
	}
	if !l2.Contains(1) || !l2.Contains(3) {
		t.Error("wrong eviction choice")
	}
}

// TestArrayVictimPrefersInvalid checks that a fill takes an empty way
// while the set has one, evicting nothing.
func TestArrayVictimPrefersInvalid(t *testing.T) {
	l2 := NewTimingCache(TimingConfig{Sets: 1, Ways: 4, Latency: 1}, &fixedLevel{latency: 10})
	for i, addr := range []uint64{7, 8, 9, 10} {
		l2.Access(uint64(10*i), addr, false)
	}
	if e := l2.Stats().Evictions; e != 0 {
		t.Errorf("Evictions = %d while invalid ways existed, want 0", e)
	}
	for _, addr := range []uint64{7, 8, 9, 10} {
		if !l2.Contains(addr) {
			t.Errorf("line %d not resident", addr)
		}
	}
}

func TestArrayPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimingCache(TimingConfig{Sets: 0, Ways: 4}, &fixedLevel{})
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 || LineAddr(130) != 2 {
		t.Error("LineAddr arithmetic wrong")
	}
}

func TestTimingCacheHitMiss(t *testing.T) {
	mem := &fixedLevel{latency: 100}
	l2 := NewTimingCache(TimingConfig{Sets: 16, Ways: 4, Latency: 10}, mem)

	// Cold miss: latency = own 10 (lookup) + 100 (mem) + 10 (fill-to-use).
	ready := l2.Access(0, 42, false)
	if ready != 120 {
		t.Errorf("miss ready = %d, want 120", ready)
	}
	// Hit well after the fill.
	ready = l2.Access(500, 42, false)
	if ready != 510 {
		t.Errorf("hit ready = %d, want 510", ready)
	}
	st := l2.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats: %+v", st)
	}
	if !l2.Contains(42) || l2.Contains(43) {
		t.Error("Contains wrong")
	}
}

func TestTimingCacheInflightMerge(t *testing.T) {
	mem := &fixedLevel{latency: 100}
	l2 := NewTimingCache(TimingConfig{Sets: 16, Ways: 4, Latency: 10}, mem)
	first := l2.Access(0, 42, false) // data at 120
	// A second access at cycle 20 finds the tag installed but data in
	// flight; it must not be served before the fill.
	second := l2.Access(20, 42, false)
	if second < first {
		t.Errorf("merged access ready %d before fill %d", second, first)
	}
	if l2.Stats().MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d", l2.Stats().MSHRMerges)
	}
	// After the fill, plain hit timing again.
	third := l2.Access(1000, 42, false)
	if third != 1010 {
		t.Errorf("post-fill hit ready = %d", third)
	}
}

func TestTimingCacheBandwidthContention(t *testing.T) {
	mem := &fixedLevel{latency: 100}
	l2 := NewTimingCache(TimingConfig{Sets: 16, Ways: 4, Latency: 10, ServiceInterval: 4}, mem)
	a := l2.Access(0, 1, false)
	b := l2.Access(0, 2, false) // same cycle: must queue 4 cycles
	if b != a+4 {
		t.Errorf("contended access ready %d, want %d", b, a+4)
	}
}

func TestTimingCacheEviction(t *testing.T) {
	mem := &fixedLevel{latency: 10}
	l2 := NewTimingCache(TimingConfig{Sets: 1, Ways: 2, Latency: 1}, mem)
	l2.Access(0, 1, false)
	l2.Access(10, 2, false)
	l2.Access(20, 3, false) // evicts 1 (LRU)
	if l2.Contains(1) {
		t.Error("LRU line survived")
	}
	if l2.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d", l2.Stats().Evictions)
	}
}

func TestDRAMBandwidthAndJitter(t *testing.T) {
	d := NewDRAM(DRAMConfig{Latency: 200, ServiceInterval: 8})
	a := d.Access(0, 1, false)
	if a != 200 {
		t.Errorf("first access ready = %d", a)
	}
	b := d.Access(0, 2, false)
	if b != 208 {
		t.Errorf("queued access ready = %d, want 208", b)
	}
	if d.Reads != 2 {
		t.Errorf("Reads = %d", d.Reads)
	}

	j := NewDRAM(DRAMConfig{Latency: 200, JitterMask: 0x3F})
	seen := map[uint64]bool{}
	for i := uint64(0); i < 64; i++ {
		r := j.Access(i*1000, i, false)
		lat := r - i*1000
		if lat < 200 || lat > 200+63 {
			t.Fatalf("jittered latency %d out of range", lat)
		}
		seen[lat] = true
	}
	if len(seen) < 8 {
		t.Errorf("jitter produced only %d distinct latencies", len(seen))
	}
}

func TestTranslator(t *testing.T) {
	tr := &Translator{Salt: 1}
	// Deterministic.
	if tr.Translate(12345) != tr.Translate(12345) {
		t.Error("translation not deterministic")
	}
	// Lines within a page keep their offsets.
	base := uint64(0x1000) >> LineBits << pageOffsetLineBits // some vpn boundary
	p0 := tr.Translate(base)
	p1 := tr.Translate(base + 1)
	if p1 != p0+1 {
		t.Errorf("intra-page contiguity broken: %#x vs %#x", p0, p1)
	}
	// Consecutive pages are (almost surely) not contiguous.
	q := tr.Translate(base + (1 << pageOffsetLineBits))
	if q == p0+(1<<pageOffsetLineBits) {
		t.Error("consecutive virtual pages mapped contiguously (hash collision would be astronomically unlikely)")
	}
	// Different salts give different mappings.
	tr2 := &Translator{Salt: 2}
	if tr2.Translate(base) == p0 {
		t.Error("salt did not change mapping")
	}
}

func TestTranslatorPhysBitsQuick(t *testing.T) {
	tr := &Translator{PhysBits: 30, Salt: 9}
	f := func(v uint64) bool {
		return tr.Translate(v)>>30 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// recorder captures listener events.
type recorder struct {
	accesses []AccessEvent
	fills    []FillEvent
	evicts   []EvictEvent
}

func (r *recorder) OnAccess(e AccessEvent) { r.accesses = append(r.accesses, e) }
func (r *recorder) OnFill(e FillEvent)     { r.fills = append(r.fills, e) }
func (r *recorder) OnEvict(e EvictEvent)   { r.evicts = append(r.evicts, e) }

func newTestICache(ideal bool) (*ICache, *recorder, *fixedLevel) {
	rec := &recorder{}
	mem := &fixedLevel{latency: 50}
	ic := NewICache(ICacheConfig{
		Sets: 4, Ways: 2, Latency: 4, MSHRs: 4, PQSize: 8, Ideal: ideal,
	}, mem, rec)
	return ic, rec, mem
}

func TestICacheDemandMissAndHit(t *testing.T) {
	ic, rec, _ := newTestICache(false)
	ready := ic.DemandAccess(0, 100)
	if ready != 0+4+50+4 {
		t.Errorf("miss ready = %d, want 58", ready)
	}
	if len(rec.accesses) != 1 || rec.accesses[0].Hit {
		t.Fatalf("expected one miss event, got %+v", rec.accesses)
	}
	// Advance past the fill; then a hit.
	ready = ic.DemandAccess(100, 100)
	if ready != 104 {
		t.Errorf("hit ready = %d, want 104", ready)
	}
	if len(rec.fills) != 1 {
		t.Fatalf("expected one fill, got %d", len(rec.fills))
	}
	f := rec.fills[0]
	if f.WasPrefetch || !f.Demanded || f.IssueCycle != 0 || f.Latency() != 54 {
		t.Errorf("fill event: %+v (latency %d)", f, f.Latency())
	}
	if rec.accesses[1].WasPrefetched || rec.accesses[1].FirstUse {
		t.Errorf("demand-filled line flagged as prefetched: %+v", rec.accesses[1])
	}
	st := ic.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fills != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestICacheMSHRMergeIsNotLatePrefetch(t *testing.T) {
	ic, rec, _ := newTestICache(false)
	ic.DemandAccess(0, 100)
	ready := ic.DemandAccess(2, 100) // merge with demand in flight
	if ready < 54 {
		t.Errorf("merged ready = %d too early", ready)
	}
	if len(rec.accesses) != 2 {
		t.Fatal("missing merge event")
	}
	ev := rec.accesses[1]
	if !ev.MSHRHit || ev.LatePrefetch {
		t.Errorf("merge event: %+v", ev)
	}
	if ic.Stats().MSHRMerges != 1 || ic.Stats().LatePrefetches != 0 {
		t.Errorf("stats: %+v", ic.Stats())
	}
}

func TestICacheTimelyPrefetch(t *testing.T) {
	ic, rec, mem := newTestICache(false)
	if !ic.Prefetch(0, 200, 0xBEEF) {
		t.Fatal("prefetch rejected")
	}
	ic.AdvanceTo(100) // prefetch issues and fills
	if mem.pfCount != 1 {
		t.Errorf("next level saw %d prefetches", mem.pfCount)
	}
	if len(rec.fills) != 1 || !rec.fills[0].WasPrefetch || rec.fills[0].Demanded {
		t.Fatalf("prefetch fill: %+v", rec.fills)
	}
	if rec.fills[0].Meta != 0xBEEF {
		t.Error("meta lost on fill")
	}
	ready := ic.DemandAccess(100, 200)
	if ready != 104 {
		t.Errorf("prefetched line ready = %d, want 104", ready)
	}
	ev := rec.accesses[0]
	if !ev.Hit || !ev.WasPrefetched || !ev.FirstUse || ev.Meta != 0xBEEF {
		t.Errorf("timely-hit event: %+v", ev)
	}
	if ic.Stats().TimelyPrefetchHits != 1 {
		t.Errorf("stats: %+v", ic.Stats())
	}
	// Second access: no longer FirstUse.
	ic.DemandAccess(110, 200)
	if rec.accesses[1].FirstUse {
		t.Error("second access flagged FirstUse")
	}
	if ic.Stats().TimelyPrefetchHits != 1 {
		t.Error("timely hits double counted")
	}
}

func TestICacheLatePrefetch(t *testing.T) {
	ic, rec, _ := newTestICache(false)
	ic.Prefetch(0, 200, 7)
	ic.AdvanceTo(1) // issue but not filled (mem latency 50)
	ready := ic.DemandAccess(10, 200)
	if ready < 50 {
		t.Errorf("late-prefetch ready = %d, should wait for fill", ready)
	}
	ev := rec.accesses[0]
	if !ev.MSHRHit || !ev.LatePrefetch || ev.Meta != 7 {
		t.Errorf("late prefetch event: %+v", ev)
	}
	if ic.Stats().LatePrefetches != 1 {
		t.Errorf("stats: %+v", ic.Stats())
	}
	// At fill time, the access bit must be set (Demanded).
	ic.AdvanceTo(200)
	if len(rec.fills) != 1 || !rec.fills[0].Demanded || !rec.fills[0].WasPrefetch {
		t.Fatalf("fill after late prefetch: %+v", rec.fills)
	}
	// A subsequent hit is NOT a timely first use.
	ic.DemandAccess(300, 200)
	if rec.accesses[1].FirstUse {
		t.Error("late-prefetched line counted as timely")
	}
}

func TestICacheWrongPrefetchEviction(t *testing.T) {
	ic, rec, _ := newTestICache(false)
	// Prefetch into set of addr 0 (sets=4): line addrs 0, 4, 8 share set 0.
	ic.Prefetch(0, 0, 11)
	ic.AdvanceTo(100)
	// Two demand fills into the same set evict the unused prefetch.
	ic.DemandAccess(100, 4)
	ic.DemandAccess(200, 8)
	ic.DemandAccess(300, 16) // set 0 again -> evicts LRU (the prefetch)
	ic.AdvanceTo(1000)
	found := false
	for _, e := range rec.evicts {
		if e.LineAddr == 0 {
			found = true
			if !e.Prefetched || e.Accessed || e.Meta != 11 {
				t.Errorf("wrong-prefetch evict event: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("prefetched line never evicted")
	}
	if ic.Stats().WrongPrefetches == 0 {
		t.Error("WrongPrefetches not counted")
	}
}

func TestICachePrefetchDrops(t *testing.T) {
	ic, _, _ := newTestICache(false)
	// Fill the PQ (size 8).
	for i := 0; i < 8; i++ {
		if !ic.Prefetch(0, uint64(1000+i), 0) {
			t.Fatalf("prefetch %d rejected early", i)
		}
	}
	if ic.Prefetch(0, 2000, 0) {
		t.Error("PQ overflow accepted")
	}
	if ic.Stats().PrefetchDroppedPQ != 1 {
		t.Errorf("PrefetchDroppedPQ = %d", ic.Stats().PrefetchDroppedPQ)
	}
	ic.AdvanceTo(10_000)
	// Prefetch to a present line must be dropped at issue.
	before := ic.Stats().PrefetchIssued
	ic.Prefetch(10_000, 1000, 0)
	ic.AdvanceTo(20_000)
	if ic.Stats().PrefetchIssued != before {
		t.Error("prefetch to present line was issued")
	}
	if ic.Stats().PrefetchDroppedHit == 0 {
		t.Error("PrefetchDroppedHit not counted")
	}
}

func TestICachePrefetchDroppedOnMSHRMatch(t *testing.T) {
	ic, _, _ := newTestICache(false)
	ic.DemandAccess(0, 100) // in flight until 54
	ic.Prefetch(1, 100, 0)
	ic.AdvanceTo(5)
	if ic.Stats().PrefetchDroppedMSHR != 1 {
		t.Errorf("PrefetchDroppedMSHR = %d", ic.Stats().PrefetchDroppedMSHR)
	}
}

func TestICacheMSHRFullStalls(t *testing.T) {
	ic, _, _ := newTestICache(false) // 4 MSHRs
	for i := 0; i < 4; i++ {
		ic.DemandAccess(0, uint64(100+i))
	}
	// Fifth distinct miss at cycle 1: all MSHRs busy until ~54.
	ready := ic.DemandAccess(1, 300)
	if ready < 54 {
		t.Errorf("5th miss ready=%d; should stall for a free MSHR", ready)
	}
}

func TestICacheIdeal(t *testing.T) {
	ic, _, mem := newTestICache(true)
	ready := ic.DemandAccess(0, 100)
	if ready != 4 {
		t.Errorf("ideal access ready = %d, want 4", ready)
	}
	if ic.Stats().Misses != 0 || ic.Stats().Hits != 1 {
		t.Errorf("ideal stats: %+v", ic.Stats())
	}
	if len(mem.accesses) != 1 {
		t.Error("ideal mode must still send traffic to the next level")
	}
	// Second access: genuine hit, no more traffic.
	ic.DemandAccess(10, 100)
	if len(mem.accesses) != 1 {
		t.Error("ideal mode re-fetched a present line")
	}
}

func TestICacheClockMonotone(t *testing.T) {
	ic, _, _ := newTestICache(false)
	ic.DemandAccess(100, 1)
	ic.DemandAccess(50, 2) // out-of-order call must clamp, not go back
	if ic.Now() < 100 {
		t.Errorf("clock went backwards: %d", ic.Now())
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 10, Misses: 2, PrefetchFills: 4, TimelyPrefetchHits: 3}
	if s.MissRatio() != 0.2 {
		t.Errorf("MissRatio = %v", s.MissRatio())
	}
	if s.Accuracy() != 0.75 {
		t.Errorf("Accuracy = %v", s.Accuracy())
	}
	empty := Stats{}
	if empty.MissRatio() != 0 || empty.Accuracy() != 0 {
		t.Error("empty stats not zero")
	}
	if s.UsefulPrefetches() != 3 {
		t.Error("UsefulPrefetches")
	}
}

func TestICachePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewICache(ICacheConfig{Sets: 1, Ways: 1, MSHRs: 1}, nil, nil) },
		func() { NewICache(ICacheConfig{Sets: 1, Ways: 1, MSHRs: 0}, &fixedLevel{}, nil) },
		func() { NewTimingCache(TimingConfig{Sets: 1, Ways: 1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
