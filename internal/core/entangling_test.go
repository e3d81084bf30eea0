package core

import (
	"testing"

	"entangling/internal/cache"
	"entangling/internal/prefetch"
	"entangling/internal/trace"
)

// mockIssuer records prefetch requests.
type mockIssuer struct {
	reqs []mockReq
	full bool
}

type mockReq struct {
	notBefore uint64
	line      uint64
	meta      uint64
}

func (m *mockIssuer) Prefetch(notBefore uint64, line uint64, meta uint64) bool {
	if m.full {
		return false
	}
	m.reqs = append(m.reqs, mockReq{notBefore, line, meta})
	return true
}

func (m *mockIssuer) lines() []uint64 {
	out := make([]uint64, len(m.reqs))
	for i, r := range m.reqs {
		out[i] = r.line
	}
	return out
}

func access(e *Entangling, cycle, line uint64, hit bool) {
	e.OnAccess(cache.AccessEvent{Cycle: cycle, LineAddr: line, Hit: hit})
}

func fill(e *Entangling, issue, fillCycle, line uint64) {
	e.OnFill(cache.FillEvent{Cycle: fillCycle, LineAddr: line, IssueCycle: issue, Demanded: true})
}

func smallCfg() Config {
	cfg := Config4K(Virtual)
	cfg.TableLatency = 0
	return cfg
}

// walkSequence replays: head A (3 lines), head B (1 line), miss at head
// D with a given latency, then fill — the paper's Figure 3 scenario.
func TestEntanglePairCreatedWithTimelySource(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)

	// BB1: head 100 at cycle 0, grows to 102.
	access(e, 0, 100, true)
	access(e, 1, 101, true)
	access(e, 2, 102, true)
	// BB2: head 200 at cycle 50.
	access(e, 50, 200, true)
	// BB3: head 300 misses at cycle 100; fill at cycle 160 (latency 60).
	access(e, 100, 300, false)
	fill(e, 100, 160, 300)

	// Source must be accessed >= 60 cycles before the miss: head 100
	// (age 100) qualifies; head 200 (age 50) does not.
	entry := e.table.lookup(100)
	if entry == nil || entry.ndst != 1 || entry.dsts[0].line != 300 {
		t.Fatalf("pair (100 -> 300) not created: %+v", entry)
	}
	if got := e.table.lookup(200); got != nil && got.ndst != 0 {
		t.Error("too-recent head 200 received the destination")
	}
	if e.Stats().PairsInserted != 1 {
		t.Errorf("PairsInserted = %d", e.Stats().PairsInserted)
	}
}

func TestTriggerPrefetchesBlockAndDestinations(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)

	// Teach: block at 100 has 2 following lines; dst 300 entangled with
	// block size 1.
	access(e, 0, 100, true)
	access(e, 1, 101, true)
	access(e, 2, 102, true)
	access(e, 10, 300, true)
	access(e, 12, 301, true)
	access(e, 50, 200, true) // complete 300's block (size 1)
	access(e, 100, 400, false)
	fill(e, 100, 150, 400) // pair: some source -> 400

	// Entangle 300 again through the mechanism: a new miss at 300.
	access(e, 1000, 100, true)
	access(e, 1001, 101, true)
	access(e, 1002, 102, true)
	access(e, 1030, 300, false)
	fill(e, 1030, 1060, 300)

	// Locate the source the backward history walk chose for dst 300.
	var src uint64
	for i := range e.table.entries {
		for _, d := range e.table.entries[i].dstSlots() {
			if d.line == 300 {
				src = e.table.lines[i]
			}
		}
	}
	if src == 0 {
		t.Fatal("no pair with destination 300 was created")
	}

	// Make 100 current again so the access below completes a block and
	// then triggers on src. Accessing src must prefetch the destination
	// 300 plus 300's block (301); accessing 100 must prefetch its block
	// lines (101, 102).
	is.reqs = nil
	access(e, 2000, 100, true)
	access(e, 2010, src, true)
	want := map[uint64]bool{101: true, 102: true, 300: true, 301: true}
	got := map[uint64]bool{}
	for _, l := range is.lines() {
		got[l] = true
	}
	for l := range want {
		if !got[l] {
			t.Errorf("line %d not prefetched; got %v", l, is.lines())
		}
	}
	// The destination prefetch carries confidence metadata; block lines
	// do not.
	for _, r := range is.reqs {
		if r.line == 300 && r.meta == 0 {
			t.Error("destination prefetch lacks metadata")
		}
		if (r.line == 101 || r.line == 102) && r.meta != 0 {
			t.Error("block-line prefetch carries metadata")
		}
	}
}

func TestTableLatencyDelaysPrefetch(t *testing.T) {
	cfg := smallCfg()
	cfg.TableLatency = 5
	is := &mockIssuer{}
	e := New(cfg, is)
	access(e, 0, 100, true)
	access(e, 1, 101, true)
	access(e, 10, 200, true) // completes block 100 (size 1)
	is.reqs = nil
	access(e, 100, 100, true) // trigger
	if len(is.reqs) == 0 {
		t.Fatal("no prefetch issued")
	}
	for _, r := range is.reqs {
		if r.notBefore != 105 {
			t.Errorf("notBefore = %d, want 105", r.notBefore)
		}
	}
}

func TestConfidenceLifecycle(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)
	// Create pair 100 -> 300.
	access(e, 0, 100, true)
	access(e, 50, 200, true)
	access(e, 100, 300, false)
	fill(e, 100, 160, 300)
	entry, set, way := e.table.lookupPos(100)
	if entry == nil || entry.ndst != 1 {
		t.Fatal("pair missing")
	}
	if entry.dsts[0].conf != maxConf {
		t.Fatalf("initial conf = %d, want %d", entry.dsts[0].conf, maxConf)
	}
	meta := prefetchMeta(set, way, e.table.tag(100))

	// Wrong prefetch: eviction unaccessed decrements.
	e.OnEvict(cache.EvictEvent{LineAddr: 300, Prefetched: true, Accessed: false, Meta: meta})
	if entry.dsts[0].conf != maxConf-1 {
		t.Errorf("conf after wrong = %d", entry.dsts[0].conf)
	}
	// Timely hit increments.
	e.OnAccess(cache.AccessEvent{Cycle: 1, LineAddr: 300, Hit: true, WasPrefetched: true, FirstUse: true, Meta: meta})
	if entry.dsts[0].conf != maxConf {
		t.Errorf("conf after timely = %d", entry.dsts[0].conf)
	}
	// Three consecutive wrongs kill the pair.
	for i := 0; i < 3; i++ {
		e.OnEvict(cache.EvictEvent{LineAddr: 300, Prefetched: true, Accessed: false, Meta: meta})
	}
	if entry.ndst != 0 {
		t.Errorf("dead pair not dropped: %+v", entry.dsts)
	}
	s := e.Stats()
	if s.ConfidenceUp != 1 || s.ConfidenceDown != 4 {
		t.Errorf("conf stats up=%d down=%d", s.ConfidenceUp, s.ConfidenceDown)
	}
}

func TestLatePrefetchDecrementsConfidence(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)
	access(e, 0, 100, true)
	access(e, 100, 300, false)
	fill(e, 100, 160, 300)
	entry, set, way := e.table.lookupPos(100)
	meta := prefetchMeta(set, way, e.table.tag(100))
	e.OnAccess(cache.AccessEvent{Cycle: 1, LineAddr: 300, LatePrefetch: true, MSHRHit: true, Meta: meta})
	if entry.dsts[0].conf != maxConf-1 {
		t.Errorf("conf after late = %d", entry.dsts[0].conf)
	}
}

func TestStaleMetaIgnored(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)
	access(e, 0, 100, true)
	access(e, 100, 300, false)
	fill(e, 100, 160, 300)
	entry, set, way := e.table.lookupPos(100)
	// Forge metadata with a wrong tag: must be ignored.
	bad := prefetchMeta(set, way, e.table.tag(100)^1)
	e.OnEvict(cache.EvictEvent{LineAddr: 300, Prefetched: true, Accessed: false, Meta: bad})
	if entry.dsts[0].conf != maxConf {
		t.Error("stale metadata mutated confidence")
	}
	// Zero meta is a no-op.
	e.OnEvict(cache.EvictEvent{LineAddr: 300, Prefetched: true, Accessed: false, Meta: 0})
	if entry.dsts[0].conf != maxConf {
		t.Error("zero metadata mutated confidence")
	}
}

func TestBodyMissDoesNotTrain(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)
	access(e, 0, 100, true)  // head
	access(e, 1, 101, false) // body line misses: no history pointer
	fill(e, 1, 60, 101)
	for i := range e.table.entries {
		for _, d := range e.table.entries[i].dstSlots() {
			if d.line == 101 {
				t.Fatal("body-line miss created an entangled pair")
			}
		}
	}
}

func TestMergePropagatesToTable(t *testing.T) {
	cfg := smallCfg() // MergeWindow 6, VariantFull
	is := &mockIssuer{}
	e := New(cfg, is)
	// Block A: 100..101. Then block C at 102 (consecutive): merged.
	access(e, 0, 100, true)
	access(e, 1, 101, true)
	access(e, 10, 500, true) // completes A (size 1), new head 500
	access(e, 20, 102, true) // head C, consecutive with A's span
	access(e, 30, 600, true) // completes C -> merge into A
	if e.Stats().Merges == 0 {
		t.Fatal("no merge happened")
	}
	a := e.table.lookup(100)
	if a == nil || a.bbSize < 2 {
		t.Errorf("merged size not propagated: %+v", a)
	}
	if c := e.table.lookup(102); c != nil && c.bbSize > 0 {
		t.Error("merged block recorded its own size entry")
	}
}

func TestVariantBBOnlyPrefetchesBlock(t *testing.T) {
	cfg := smallCfg()
	cfg.Variant = VariantBB
	is := &mockIssuer{}
	e := New(cfg, is)
	// Train a pair and a block.
	access(e, 0, 100, true)
	access(e, 1, 101, true)
	access(e, 50, 200, true)
	access(e, 100, 300, false)
	fill(e, 100, 160, 300)
	is.reqs = nil
	access(e, 1000, 100, true)
	for _, l := range is.lines() {
		if l == 300 {
			t.Error("VariantBB prefetched a destination")
		}
	}
}

func TestVariantEntNoBlocks(t *testing.T) {
	cfg := smallCfg()
	cfg.Variant = VariantEnt
	is := &mockIssuer{}
	e := New(cfg, is)
	access(e, 0, 100, true)
	access(e, 100, 300, false)
	fill(e, 100, 160, 300)
	is.reqs = nil
	access(e, 1000, 100, true)
	// Destination prefetched, but no block lines.
	foundDst := false
	for _, l := range is.lines() {
		if l == 300 {
			foundDst = true
		}
		if l == 101 || l == 301 {
			t.Errorf("VariantEnt prefetched block line %d", l)
		}
	}
	if !foundDst {
		t.Error("VariantEnt did not prefetch the destination")
	}
}

func TestSecondSourceFallback(t *testing.T) {
	is := &mockIssuer{}
	e := New(smallCfg(), is)
	// Two old heads, both eligible sources.
	access(e, 0, 1000, true)
	access(e, 10, 2000, true)
	// Fill 2000's entry (the most recent eligible source) to capacity
	// with far destinations (mode 1 -> capacity 1).
	e.table.addDst(2000, 2000^0x40000000)
	// Miss: both 2000 (age 100) and 1000 (age 110) qualify (latency 50).
	access(e, 110, 3000, false)
	fill(e, 110, 160, 3000)
	// 2000 is full; the pair must land on 1000 (second source).
	e1000 := e.table.lookup(1000)
	found := false
	if e1000 != nil {
		for _, d := range e1000.dstSlots() {
			if d.line == 3000 {
				found = true
			}
		}
	}
	if !found {
		t.Error("second-source fallback did not place the pair on the older head")
	}
}

func TestStorageBitsMatchPaper(t *testing.T) {
	cases := []struct {
		cfg  Config
		want float64 // KB
	}{
		{Config2K(Virtual), 20.87},
		{Config4K(Virtual), 40.74},
		{Config8K(Virtual), 77.44},
		{Config2K(Physical), 16.59},
		{Config4K(Physical), 32.21},
		{Config8K(Physical), 63.40},
	}
	for _, c := range cases {
		e := New(c.cfg, &mockIssuer{})
		gotKB := float64(e.StorageBits()) / 8 / 1024
		if gotKB < c.want*0.97 || gotKB > c.want*1.03 {
			t.Errorf("%s (%v): %.2fKB, paper says %.2fKB", c.cfg.Name, c.cfg.Space, gotKB, c.want)
		}
	}
	// EPI reports the paper's quoted number.
	epi := New(ConfigEPI(), &mockIssuer{})
	if kb := float64(epi.StorageBits()) / 8 / 1024; kb < 127 || kb > 129 {
		t.Errorf("EPI storage = %.2fKB", kb)
	}
}

func TestNameAndInterfaces(t *testing.T) {
	e := New(Config4K(Virtual), &mockIssuer{})
	if e.Name() != "entangling-4k" {
		t.Errorf("Name = %q", e.Name())
	}
	var _ prefetch.Prefetcher = e
	e.OnBranch(prefetch.BranchEvent{}) // must be a no-op
	if e.Config().Sets != 256 {
		t.Error("Config() accessor wrong")
	}
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		VariantFull: "BBEntBB-Merge", VariantBB: "BB", VariantBBEnt: "BBEnt",
		VariantBBEntBB: "BBEntBB", VariantEnt: "Ent",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant String empty")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Sets: 0, Ways: 4}, &mockIssuer{})
}

func TestMetaRoundTrip(t *testing.T) {
	for _, c := range []struct {
		set, way int
		tag      uint16
	}{{0, 0, 0}, {511, 15, 1023}, {255, 33, 512}} {
		m := prefetchMeta(c.set, c.way, c.tag)
		set, way, tag, ok := decodeMeta(m)
		if !ok || set != c.set || way != c.way || tag != c.tag {
			t.Errorf("meta round trip failed: %+v -> %d %d %d %v", c, set, way, tag, ok)
		}
	}
	if _, _, _, ok := decodeMeta(0); ok {
		t.Error("zero meta decoded as valid")
	}
}

func callEvent(pc, target uint64) prefetch.BranchEvent {
	return prefetch.BranchEvent{PC: pc, Type: trace.DirectCall, Taken: true, Target: target}
}

func retEvent(pc uint64) prefetch.BranchEvent {
	return prefetch.BranchEvent{PC: pc, Type: trace.Return, Taken: true}
}
