package core

import "math/bits"

// entangledTable is the paper's Entangled table (§III-A, Figure 4): a
// set-associative structure whose entries pair a source line (10-bit
// tag) with its maximum basic-block size and a mode-compressed array of
// destination lines, each with a 2-bit confidence counter.
//
// Replacement is the paper's enhanced FIFO (§III-C3): the per-set FIFO
// victim's payload can be relocated into a way that holds no entangled
// pairs, so sources with destinations survive longer than bare
// basic-block-size entries.
type entangledTable struct {
	space   AddressSpace
	sets    int
	ways    int
	tagBits int
	// With a power-of-two set count (every shipped config), pow2 is
	// set, and the set index and the bits above it are a mask and a
	// shift instead of a divide.
	pow2  bool
	mask  uint64
	shift int

	// tags, parallel to entries, holds each way's folded tag with
	// tagValid set, or 0 for an empty way: a lookup scans this dense
	// array and touches only the matching entry. lines holds each
	// way's full source line address, used only for alias
	// diagnostics (hardware stores just the folded tag).
	tags    []uint32
	lines   []uint64
	entries []tableEntry
	fifoPtr []int

	// Stats feeding Figures 12-15.
	// insertsBySig[mode-1] counts destination inserts whose needed bits
	// fall in that mode's significant-bit bucket. A fixed array (hot
	// per-insert path) instead of a map; insertHistogram rebuilds the
	// bucket-keyed map view for Stats.
	insertsBySig [maxDstSlots]uint64
	dstEvicted   uint64
	relocations  uint64
	extraLookups uint64
	aliasHits    uint64
}

// maxDstSlots is the largest destination count any mode allows (mode 6
// of the virtual geometry, Table I); the physical geometry uses at most
// 4 of the slots. Sizing entries to the hardware maximum keeps the
// whole table allocation-free after construction.
const maxDstSlots = 6

// tagValid marks a used way in entangledTable.tags.
const tagValid = 1 << 16

// tableEntry is one way's payload; its tag and validity live in
// entangledTable.tags.
type tableEntry struct {
	bbSize uint8 // 6-bit max basic-block size
	mode   uint8 // current compression mode (1-based); 0 = none yet
	// dsts[:ndst] holds the destinations semantically (full line
	// addresses plus the bit budget each needs); the mode bounds ndst
	// and every needed-bit count, exactly as the packed hardware
	// encoding would. The backing array is fixed-capacity, mirroring
	// the hardware's bounded destination array.
	dsts [maxDstSlots]dstSlot
	ndst int
}

// dstSlots returns the valid destinations as a slice view.
func (e *tableEntry) dstSlots() []dstSlot { return e.dsts[:e.ndst] }

// removeDst deletes the destination at index i, keeping order.
func (e *tableEntry) removeDst(i int) {
	copy(e.dsts[i:], e.dsts[i+1:e.ndst])
	e.ndst--
	e.dsts[e.ndst] = dstSlot{}
}

type dstSlot struct {
	line uint64 // full destination line address
	need uint8  // significant bits required relative to its source
	conf uint8  // 2-bit confidence
}

// defaultTagBits is the stored tag width (§III-C3: "tags are encoded
// using 10 bits"); aliasing across the folded bits is part of the cost
// model.
const defaultTagBits = 10

func newTable(space AddressSpace, sets, ways, tagBits int) *entangledTable {
	if sets <= 0 || ways <= 0 {
		panic("core: table needs positive sets and ways")
	}
	if tagBits <= 0 {
		tagBits = defaultTagBits
	}
	return &entangledTable{
		space:   space,
		sets:    sets,
		ways:    ways,
		tagBits: tagBits,
		pow2:    sets&(sets-1) == 0,
		mask:    uint64(sets - 1),
		shift:   bits.TrailingZeros(uint(sets)),
		tags:    make([]uint32, sets*ways),
		lines:   make([]uint64, sets*ways),
		entries: make([]tableEntry, sets*ways),
		fifoPtr: make([]int, sets),
	}
}

// insertHistogram rebuilds the Figure 12 map view (needed-bit bucket ->
// insert count) from the per-mode counters.
func (t *entangledTable) insertHistogram() map[int]uint64 {
	g := geometries[t.space]
	out := make(map[int]uint64, len(g.sigBits))
	for i, v := range t.insertsBySig {
		if v != 0 && i < len(g.sigBits) {
			out[g.sigBits[i]] = v
		}
	}
	return out
}

// index hashes a line address to its set with a simple XOR fold
// (§III-C2: "indexed with a simple XOR operation of the different bits
// of the address").
func (t *entangledTable) index(line uint64) int {
	h := line
	h ^= h >> 9
	h ^= h >> 18
	h ^= h >> 36
	if t.pow2 {
		return int(h & t.mask)
	}
	return int(h % uint64(t.sets))
}

// tag folds the bits above the set index into the stored tag width.
func (t *entangledTable) tag(line uint64) uint16 {
	h := line >> t.shift
	if !t.pow2 {
		h = line / uint64(t.sets)
	}
	h ^= h >> t.tagBits
	h ^= h >> (2 * t.tagBits)
	return uint16(h & (1<<t.tagBits - 1))
}

// find returns the set holding line and the slot of the first way
// whose tag matches, or slot -1.
func (t *entangledTable) find(line uint64) (set, slot int) {
	set = t.index(line)
	want := uint32(t.tag(line)) | tagValid
	b := set * t.ways
	for i, g := range t.tags[b : b+t.ways] {
		if g == want {
			return set, b + i
		}
	}
	return set, -1
}

// lookup returns the entry matching line, or nil.
func (t *entangledTable) lookup(line uint64) *tableEntry {
	if _, i := t.find(line); i >= 0 {
		return &t.entries[i]
	}
	return nil
}

// lookupPos returns the entry matching line along with its set and
// way, or (nil, -1, -1).
func (t *entangledTable) lookupPos(line uint64) (*tableEntry, int, int) {
	s, i := t.find(line)
	if i < 0 {
		return nil, -1, -1
	}
	return &t.entries[i], s, i - s*t.ways
}

// entryAt returns the entry at (set, way) if it is valid and holds
// tag, or nil.
func (t *entangledTable) entryAt(set, way int, tag uint16) *tableEntry {
	if set < 0 || set >= t.sets || way < 0 || way >= t.ways {
		return nil
	}
	i := set*t.ways + way
	if t.tags[i] != uint32(tag)|tagValid {
		return nil
	}
	return &t.entries[i]
}

// recordBlock records (or refreshes) a source's basic-block size,
// keeping the maximum seen (§III-A1, a coverage-vs-false-positive
// trade the paper makes explicit). It allocates the entry if needed.
func (t *entangledTable) recordBlock(line uint64, size uint8) *tableEntry {
	if size > 63 {
		size = 63
	}
	e := t.lookup(line)
	if e == nil {
		e = t.allocate(line)
	}
	if size > e.bbSize {
		e.bbSize = size
	}
	return e
}

// hasFreeDst reports whether the entry could accept (src->dst) without
// evicting an existing destination: the combined mode must still have
// capacity.
func (t *entangledTable) hasFreeDst(e *tableEntry, src, dst uint64) bool {
	need := neededBits(t.space, src, dst)
	maxNeed := need
	for i := 0; i < e.ndst; i++ {
		if int(e.dsts[i].need) > maxNeed {
			maxNeed = int(e.dsts[i].need)
		}
	}
	return e.ndst < modeFor(t.space, maxNeed)
}

// addDst inserts dst into src's entry with maximum confidence,
// allocating the entry if needed, recomputing the mode, and evicting
// the lowest-confidence destination when the mode's capacity is
// exceeded (§III-B1, §III-B3).
func (t *entangledTable) addDst(src, dst uint64) *tableEntry {
	e := t.lookup(src)
	if e == nil {
		e = t.allocate(src)
	}
	need := neededBits(t.space, src, dst)

	// Already present: refresh confidence and (possibly) the needed
	// bits, then recompute the mode.
	for i := 0; i < e.ndst; i++ {
		if e.dsts[i].line == dst {
			e.dsts[i].conf = maxConf
			e.dsts[i].need = uint8(need)
			t.recomputeMode(e)
			return e
		}
	}

	// sigBucket(space, need) == sigBits[modeFor(space, need)-1], so the
	// histogram indexes directly by mode.
	t.insertsBySig[modeFor(t.space, need)-1]++

	maxNeed := need
	for i := 0; i < e.ndst; i++ {
		if int(e.dsts[i].need) > maxNeed {
			maxNeed = int(e.dsts[i].need)
		}
	}
	capacity := modeFor(t.space, maxNeed)
	for e.ndst >= capacity {
		// Evict the lowest-confidence destination.
		victim := 0
		for i := 0; i < e.ndst; i++ {
			if e.dsts[i].conf < e.dsts[victim].conf {
				victim = i
			}
		}
		e.removeDst(victim)
		t.dstEvicted++
		// Mode may relax after the eviction (§III-B3).
		maxNeed = need
		for i := 0; i < e.ndst; i++ {
			if int(e.dsts[i].need) > maxNeed {
				maxNeed = int(e.dsts[i].need)
			}
		}
		capacity = modeFor(t.space, maxNeed)
	}
	e.dsts[e.ndst] = dstSlot{line: dst, need: uint8(need), conf: maxConf}
	e.ndst++
	t.recomputeMode(e)
	return e
}

// recomputeMode sets the entry's mode from its current destinations
// (§III-B3: recomputed on eviction to avoid a stale restrictive mode).
func (t *entangledTable) recomputeMode(e *tableEntry) {
	if e.ndst == 0 {
		e.mode = 0
		return
	}
	maxNeed := 1
	for i := 0; i < e.ndst; i++ {
		if int(e.dsts[i].need) > maxNeed {
			maxNeed = int(e.dsts[i].need)
		}
	}
	e.mode = uint8(modeFor(t.space, maxNeed))
}

// dropDst removes a destination by line address (confidence reached 0).
func (t *entangledTable) dropDst(e *tableEntry, dst uint64) {
	for i := 0; i < e.ndst; i++ {
		if e.dsts[i].line == dst {
			e.removeDst(i)
			t.recomputeMode(e)
			return
		}
	}
}

// allocate claims a way for line using enhanced FIFO replacement.
func (t *entangledTable) allocate(line uint64) *tableEntry {
	s := t.index(line)
	b := s * t.ways
	set := t.entries[b : b+t.ways]
	tags := t.tags[b : b+t.ways]

	// Free way first.
	way := -1
	for i, g := range tags {
		if g == 0 {
			way = i
			break
		}
	}
	if way < 0 {
		way = t.fifoPtr[s]
		t.fifoPtr[s] = (t.fifoPtr[s] + 1) % t.ways

		// Enhanced FIFO: if the victim holds entangled pairs, relocate
		// its payload into a way that holds none (evicting that one
		// instead).
		if set[way].ndst > 0 {
			for i := range set {
				if i != way && set[i].ndst == 0 {
					set[i], tags[i], t.lines[b+i] = set[way], tags[way], t.lines[b+way]
					t.relocations++
					break
				}
			}
		}
	}
	set[way] = tableEntry{}
	tags[way] = uint32(t.tag(line)) | tagValid
	t.lines[b+way] = line
	return &set[way]
}

// sigBucket maps a needed-bit count to its storage-format bucket (the
// x-axis of Figure 12): the smallest mode budget that covers it.
func sigBucket(space AddressSpace, need int) int {
	g := geometries[space]
	best := g.sigBits[0]
	for _, sb := range g.sigBits {
		if sb >= need && sb < best {
			best = sb
		}
	}
	return best
}
