package core

import (
	"testing"
	"testing/quick"
)

func TestTableRecordBlockKeepsMax(t *testing.T) {
	tb := newTable(Virtual, 16, 4, 10)
	tb.recordBlock(100, 3)
	tb.recordBlock(100, 1)
	e := tb.lookup(100)
	if e == nil || e.bbSize != 3 {
		t.Fatalf("bbSize = %v, want 3", e)
	}
	tb.recordBlock(100, 7)
	if e := tb.lookup(100); e.bbSize != 7 {
		t.Errorf("bbSize = %d, want 7", e.bbSize)
	}
	// Cap at 63.
	tb.recordBlock(100, 200)
	if e := tb.lookup(100); e.bbSize != 63 {
		t.Errorf("bbSize = %d, want 63", e.bbSize)
	}
}

func TestTableAddDstModeCapacity(t *testing.T) {
	tb := newTable(Virtual, 16, 4, 10)
	src := uint64(0x100000)
	// Nearby destinations (<=8 significant bits): mode 6, capacity 6.
	for i := uint64(1); i <= 6; i++ {
		tb.addDst(src, src&^uint64(0xFF)|i)
	}
	e := tb.lookup(src)
	if e.ndst != 6 {
		t.Fatalf("dsts = %d, want 6", e.ndst)
	}
	if e.mode != 6 {
		t.Errorf("mode = %d, want 6", e.mode)
	}
	// A 7th nearby destination evicts the lowest-confidence one.
	e.dsts[2].conf = 1
	victim := e.dsts[2].line
	tb.addDst(src, src&^uint64(0xFF)|7)
	e = tb.lookup(src)
	if e.ndst != 6 {
		t.Fatalf("dsts = %d after eviction insert", e.ndst)
	}
	for _, d := range e.dstSlots() {
		if d.line == victim {
			t.Error("lowest-confidence destination not evicted")
		}
	}
}

func TestTableModeRestriction(t *testing.T) {
	tb := newTable(Virtual, 16, 4, 10)
	src := uint64(0x100000)
	// Fill with nearby destinations.
	for i := uint64(1); i <= 6; i++ {
		tb.addDst(src, src+i)
	}
	// A distant destination (needs 28 bits -> mode 2) forces capacity 2:
	// four of the six nearby ones must be evicted.
	far := src ^ 0x800_0000 // differs at bit 27
	tb.addDst(src, far)
	e := tb.lookup(src)
	if e.mode != 2 {
		t.Errorf("mode = %d, want 2", e.mode)
	}
	if e.ndst != 2 {
		t.Errorf("dsts = %d, want 2", e.ndst)
	}
}

func TestTableModeRelaxesOnDrop(t *testing.T) {
	tb := newTable(Virtual, 16, 4, 10)
	src := uint64(0x100000)
	far := src ^ 0x800_0000
	tb.addDst(src, far)
	tb.addDst(src, src+1)
	e := tb.lookup(src)
	if e.mode != 2 {
		t.Fatalf("mode = %d, want 2", e.mode)
	}
	// Dropping the far destination must relax the mode (§III-B3).
	tb.dropDst(e, far)
	if e.mode != 6 {
		t.Errorf("mode after drop = %d, want 6", e.mode)
	}
}

func TestTableDuplicateDstRefreshes(t *testing.T) {
	tb := newTable(Virtual, 16, 4, 10)
	src := uint64(0x100000)
	tb.addDst(src, src+1)
	e := tb.lookup(src)
	e.dsts[0].conf = 1
	tb.addDst(src, src+1)
	if e.ndst != 1 {
		t.Fatalf("duplicate insert grew the array: %d", e.ndst)
	}
	if e.dsts[0].conf != maxConf {
		t.Errorf("conf = %d, want %d", e.dsts[0].conf, maxConf)
	}
}

func TestTableHasFreeDst(t *testing.T) {
	tb := newTable(Virtual, 16, 4, 10)
	src := uint64(0x100000)
	for i := uint64(1); i <= 5; i++ {
		tb.addDst(src, src+i)
	}
	e := tb.lookup(src)
	if !tb.hasFreeDst(e, src, src+6) {
		t.Error("6th nearby dst should fit (mode 6)")
	}
	// A far destination would restrict mode to 2 with 5 occupants: full.
	if tb.hasFreeDst(e, src, src^0x800_0000) {
		t.Error("far dst reported as fitting")
	}
	tb.addDst(src, src+6)
	e = tb.lookup(src)
	if tb.hasFreeDst(e, src, src+7) {
		t.Error("7th dst reported as fitting")
	}
}

func TestEnhancedFIFORelocation(t *testing.T) {
	tb := newTable(Virtual, 1, 4, 10)
	// Fill the set: way 0 gets destinations, ways 1-3 bare sizes.
	// Addresses must map to set 0 (sets=1: all do).
	tb.addDst(0x1000, 0x1001)
	tb.recordBlock(0x2000, 1)
	tb.recordBlock(0x3000, 1)
	tb.recordBlock(0x4000, 1)
	// Allocation for a 5th source: FIFO victim is way 0 (holding a
	// pair) -> payload relocates onto a bare way instead of dying.
	tb.allocate(0x5000)
	if tb.relocations != 1 {
		t.Fatalf("relocations = %d, want 1", tb.relocations)
	}
	// The pair survived somewhere in the set.
	if e := tb.lookup(0x1000); e == nil || e.ndst != 1 {
		t.Error("entangled payload lost on FIFO eviction")
	}
}

func TestTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTable(Virtual, 0, 4, 10)
}

func TestTableLookupPosConsistent(t *testing.T) {
	// 48 sets is not a power of two: index and tag take the divide path.
	for _, sets := range []int{64, 48} {
		tb := newTable(Virtual, sets, 16, 10)
		f := func(line uint64) bool {
			line &= lineMask(Virtual)
			tb.recordBlock(line, 1)
			e, s, w := tb.lookupPos(line)
			if e == nil || tb.tag(line) != tagOf(line/uint64(sets), 10) {
				return false
			}
			return tb.entryAt(s, w, tb.tag(line)) == e
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%d sets: %v", sets, err)
		}
		if tb.entryAt(-1, 0, 0) != nil || tb.entryAt(0, 99, 0) != nil {
			t.Error("entryAt out of range should be nil")
		}
	}
}

// tagOf folds h, the line bits above the set index, as the table does.
func tagOf(h uint64, bits int) uint16 {
	h ^= h >> bits
	h ^= h >> (2 * bits)
	return uint16(h & (1<<bits - 1))
}

func TestSigBucket(t *testing.T) {
	cases := []struct{ need, want int }{
		{1, 8}, {8, 8}, {9, 10}, {12, 13}, {15, 18}, {20, 28}, {40, 58},
	}
	for _, c := range cases {
		if got := sigBucket(Virtual, c.need); got != c.want {
			t.Errorf("sigBucket(%d) = %d, want %d", c.need, got, c.want)
		}
	}
}

func TestTableInvariantModeCoversAllDsts(t *testing.T) {
	// Property: after arbitrary insert sequences, every entry's mode
	// budget covers every stored destination's needed bits, and the
	// destination count never exceeds the mode capacity.
	tb := newTable(Virtual, 8, 4, 10)
	f := func(ops []struct{ Src, Dst uint64 }) bool {
		for _, op := range ops {
			src := op.Src & lineMask(Virtual)
			dst := op.Dst & lineMask(Virtual)
			if src == dst {
				continue
			}
			tb.addDst(src, dst)
		}
		for i := range tb.entries {
			e := &tb.entries[i]
			if e.ndst == 0 {
				continue
			}
			if e.ndst > int(e.mode) {
				return false
			}
			budget := SigBits(Virtual, int(e.mode))
			for _, d := range e.dstSlots() {
				if int(d.need) > budget {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
