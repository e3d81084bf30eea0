package core

import (
	"fmt"

	"entangling/internal/cache"
	"entangling/internal/prefetch"
	"entangling/internal/trace"
)

// Variant selects which mechanisms are active, matching the ablation
// breakdown of Figure 11.
type Variant int

// Ablation variants (§IV-D).
const (
	// VariantFull is BBEntBB-Merge: basic blocks + entangled
	// destinations + destination basic blocks + merging. The paper's
	// proposal.
	VariantFull Variant = iota
	// VariantBB prefetches only the current basic block on a head hit.
	VariantBB
	// VariantBBEnt adds destination heads (but not their blocks).
	VariantBBEnt
	// VariantBBEntBB adds destination basic blocks (no merging).
	VariantBBEntBB
	// VariantEnt entangles raw cache lines without basic-block
	// tracking.
	VariantEnt
)

// String names the variant as in Figure 11.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "BBEntBB-Merge"
	case VariantBB:
		return "BB"
	case VariantBBEnt:
		return "BBEnt"
	case VariantBBEntBB:
		return "BBEntBB"
	case VariantEnt:
		return "Ent"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config sizes an Entangling prefetcher.
type Config struct {
	// Name labels the configuration, e.g. "entangling-4k".
	Name string
	// Sets and Ways size the Entangled table (paper: 128/256/512 sets
	// x 16 ways for the 2K/4K/8K configurations).
	Sets, Ways int
	// HistorySize is the History buffer depth (paper: 16; EPI: ~1000).
	HistorySize int
	// MergeWindow is how many recent history entries are candidates
	// for basic-block merging (paper: 15/6/5 for 2K/4K/8K); 0 disables
	// merging.
	MergeWindow int
	// Space selects virtual (Table I) or physical (Table II)
	// compression.
	Space AddressSpace
	// TableLatency is the Entangled-table access latency charged to
	// every issued prefetch (§III-C2 keeps prefetch timing honest).
	TableLatency uint64
	// Variant selects the ablation variant (VariantFull by default).
	Variant Variant
	// TagBits is the stored tag width; 0 means the default 10 bits.
	// The paper's quoted 8K virtual budget (76.25KB table) implies 76
	// bits per entry, i.e. a 7-bit tag.
	TagBits int
	// SplitTable enables the paper's future-work design (§III-C3):
	// basic-block sizes live in a separate cheap table while the
	// Entangled table keeps only sources that have destinations. At the
	// same budget the split design tracks twice the block sizes with
	// half the entangled capacity — a coverage-vs-pairs trade the paper
	// expected to pay off at low budgets.
	SplitTable bool
	// ContextBits, when non-zero, replicates sources per call-context
	// (the variant §III-B1 reports and rejects: the replication
	// overloads the table and loses performance). Kept as a
	// reproducible negative result.
	ContextBits int
	// RetireDelay, when non-zero, models the prefetch-on-retire option
	// of §III-C1: prefetches are only issued once the triggering
	// instruction retires (so wrong-path triggers would never issue),
	// which costs this many cycles of timeliness per trigger. The
	// simulator has no wrong path (like the paper's ChampSim), so only
	// the cost side is observable.
	RetireDelay uint64
	// StorageBitsOverride, when non-zero, reports this budget instead
	// of the computed one (used for the EPI configuration whose paper
	// number includes structures we do not model bit-exactly).
	StorageBitsOverride uint64
}

// Config2K returns the paper's low-budget configuration (20.87KB
// virtual / 16.59KB physical).
func Config2K(space AddressSpace) Config {
	return Config{Name: "entangling-2k", Sets: 128, Ways: 16, HistorySize: 16,
		MergeWindow: 15, Space: space, TableLatency: 2}
}

// Config4K returns the paper's medium-budget configuration (40.74KB
// virtual / 32.21KB physical).
func Config4K(space AddressSpace) Config {
	return Config{Name: "entangling-4k", Sets: 256, Ways: 16, HistorySize: 16,
		MergeWindow: 6, Space: space, TableLatency: 2}
}

// Config8K returns the paper's high-budget configuration (77.44KB
// virtual / 63.40KB physical).
func Config8K(space AddressSpace) Config {
	cfg := Config{Name: "entangling-8k", Sets: 512, Ways: 16, HistorySize: 16,
		MergeWindow: 5, Space: space, TableLatency: 2}
	if space == Virtual {
		cfg.TagBits = 7
	}
	return cfg
}

// ConfigEPI stands in for the performance-oriented (IPC-1 winning)
// Entangling prefetcher the paper lists as EPI: a ~1000-entry history
// and a 34-way, >8K-entry table, hardly implementable in hardware but
// a useful upper bound. The paper quotes 127.9KB.
func ConfigEPI() Config {
	return Config{Name: "epi", Sets: 256, Ways: 34, HistorySize: 1024,
		MergeWindow: 0, Space: Virtual, TableLatency: 0,
		StorageBitsOverride: 1047757} // 127.9KB, the paper's quoted budget
}

// Stats exposes the prefetcher-internal counters behind Figures 12-15.
type Stats struct {
	// TableHits counts accesses that hit the Entangled table.
	TableHits uint64
	// DstFound sums destinations (conf > 0) found on table hits
	// (Figure 13 = DstFound / TableHits).
	DstFound uint64
	// BBLinesPrefetched sums current-block lines prefetched on hits
	// (Figure 14 = BBLinesPrefetched / TableHits).
	BBLinesPrefetched uint64
	// DstBBLines sums destination-block lines prefetched on hits
	// (Figure 15 = DstBBLines / DstFound).
	DstBBLines uint64
	// ExtraTableSearches counts the per-hit destination size lookups
	// (§III-C2 reports an average of 2.5, max 6).
	ExtraTableSearches uint64
	// InsertsBySigBits histograms destination inserts by storage
	// format (Figure 12), keyed by significant-bit bucket.
	InsertsBySigBits map[int]uint64
	// PairsInserted counts new entangled pairs.
	PairsInserted uint64
	// ConfidenceUp / ConfidenceDown count confidence updates.
	ConfidenceUp   uint64
	ConfidenceDown uint64
	// Merges counts basic blocks absorbed by history merging.
	Merges uint64
	// AliasHits counts table hits where the 10-bit folded tag matched a
	// different source line (diagnostic; the hardware cannot tell).
	AliasHits uint64
	// Relocations counts enhanced-FIFO payload relocations.
	Relocations uint64
	// FeedbackLate / FeedbackUseless count lifecycle feedback events
	// received from the simulator's prefetch tracker (late prefetches
	// and unused evictions of our own requests).
	FeedbackLate    uint64
	FeedbackUseless uint64
}

// Entangling is the prefetcher. It implements prefetch.Prefetcher.
type Entangling struct {
	cfg    Config
	issuer prefetch.Issuer
	table  *entangledTable
	hist   *historyBuffer
	// sizes holds basic-block sizes in the split design (nil when the
	// unified table is used).
	sizes *sizeTable
	// ctxStack is the call-context stack of the ContextBits variant.
	ctxStack []uint64

	// Basic-block tracking registers (§III-A1).
	bbHead  uint64
	bbSize  uint8
	bbPos   int
	bbTS    uint32
	bbValid bool

	// pending mirrors the MSHR-resident history pointers: one
	// candidate-source snapshot per outstanding demanded miss, consumed
	// at fill time (§III-A2). A fixed array (the MSHR bound was already
	// 32) whose snapshot buffers are reused across misses, so the hot
	// path allocates nothing in steady state.
	pending [maxPending]pendingEntry

	stats Stats
}

// maxPending bounds outstanding candidate snapshots (MSHR mirror).
const maxPending = 32

type pendingEntry struct {
	line  uint64
	valid bool
	snap  candidateSnapshot
}

// assert interface compliance.
var _ prefetch.Prefetcher = (*Entangling)(nil)

// New builds an Entangling prefetcher bound to an issuer.
func New(cfg Config, issuer prefetch.Issuer) *Entangling {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("core: Config needs positive Sets and Ways")
	}
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 16
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = defaultTagBits
	}
	e := &Entangling{
		cfg:    cfg,
		issuer: issuer,
		hist:   newHistory(cfg.HistorySize),
	}
	if cfg.SplitTable {
		// Same budget, different shape: half the entangled entries,
		// twice the tracked block sizes.
		pairSets := cfg.Sets / 2
		if pairSets < 1 {
			pairSets = 1
		}
		e.table = newTable(cfg.Space, pairSets, cfg.Ways, cfg.TagBits)
		e.sizes = newSizeTable(cfg.Sets*cfg.Ways*2, cfg.TagBits)
	} else {
		e.table = newTable(cfg.Space, cfg.Sets, cfg.Ways, cfg.TagBits)
	}
	return e
}

// pendingSlot returns the slot to record a snapshot for line: when a
// slot is free, the one already holding line (overwrite semantics) or
// the free one; nil when all 32 MSHR mirrors are busy — the miss goes
// untracked, exactly as the map-based version behaved at capacity.
func (e *Entangling) pendingSlot(line uint64) *pendingEntry {
	var existing, free *pendingEntry
	for i := range e.pending {
		s := &e.pending[i]
		if s.valid {
			if s.line == line {
				existing = s
			}
		} else if free == nil {
			free = s
		}
	}
	if free == nil {
		return nil
	}
	if existing != nil {
		return existing
	}
	return free
}

// findPending returns the valid slot holding line, or nil.
func (e *Entangling) findPending(line uint64) *pendingEntry {
	for i := range e.pending {
		if e.pending[i].valid && e.pending[i].line == line {
			return &e.pending[i]
		}
	}
	return nil
}

// srcKey maps a source line to its table key; the ContextBits variant
// folds the current call context in, replicating sources per context.
func (e *Entangling) srcKey(line uint64) uint64 {
	if e.cfg.ContextBits == 0 {
		return line
	}
	var ctx uint64
	if n := len(e.ctxStack); n > 0 {
		ctx = e.ctxStack[n-1]
	}
	mask := uint64(1)<<e.cfg.ContextBits - 1
	return (line ^ (ctx&mask)<<33) & lineMask(e.cfg.Space)
}

// recordSize stores a completed block's size in whichever structure
// holds sizes.
func (e *Entangling) recordSize(head uint64, size uint8) {
	if e.sizes != nil {
		e.sizes.record(head, size)
		return
	}
	e.table.recordBlock(e.srcKey(head), size)
}

// blockSize returns the recorded size of a head (0 when unknown).
func (e *Entangling) blockSize(line uint64) uint8 {
	if e.sizes != nil {
		if sz, ok := e.sizes.lookup(line); ok {
			return sz
		}
		return 0
	}
	if en := e.table.lookup(e.srcKey(line)); en != nil {
		return en.bbSize
	}
	return 0
}

// Name implements prefetch.Prefetcher.
func (e *Entangling) Name() string { return e.cfg.Name }

// Stats returns a snapshot of the internal counters; the per-format
// insert histogram is copied from the table.
func (e *Entangling) Stats() Stats {
	s := e.stats
	s.InsertsBySigBits = e.table.insertHistogram()
	s.ExtraTableSearches = e.table.extraLookups
	s.Relocations = e.table.relocations
	s.AliasHits = e.table.aliasHits
	return s
}

// StorageBits implements prefetch.Prefetcher, reproducing the §III-C3
// accounting: Entangled table (tag 10 + bbSize 6 + destination array)
// plus per-set FIFO pointers, the History buffer (line tag + 20-bit
// timestamp + 6-bit size, plus a 4-bit head pointer), and the timing /
// src-entangled fields added to the PQ (32), MSHR (10) and L1I lines
// (512).
func (e *Entangling) StorageBits() uint64 {
	if e.cfg.StorageBitsOverride != 0 {
		return e.cfg.StorageBitsOverride
	}
	entryBits := e.cfg.TagBits + 6 + DstArrayBits(e.cfg.Space)
	table := uint64(e.cfg.Sets*e.cfg.Ways*entryBits) + uint64(e.cfg.Sets*4)
	if e.cfg.SplitTable {
		pairEntry := e.cfg.TagBits + DstArrayBits(e.cfg.Space)
		table = uint64(e.table.sets*e.table.ways*pairEntry) +
			uint64(e.table.sets*4) + e.sizes.bits()
	}

	histEntry := LineBits(e.cfg.Space) + tsBits + 6
	history := uint64(e.cfg.HistorySize*histEntry) + 4

	// Timing info: 12-bit issue time + 4-bit history pointer. Source
	// position: 4-bit way + set index bits + 1 access bit.
	setBits := 0
	for 1<<setBits < e.cfg.Sets {
		setBits++
	}
	srcPos := 4 + setBits + 1
	timing := uint64(32*(12+4+srcPos) + 10*(12+4+srcPos) + 512*srcPos)

	return table + history + timing
}

// prefetchMeta encodes the source's table position so later cache
// events (timely hit / late / wrong prefetch) can update the right
// pair's confidence — the paper's "src-entangled information" carried
// by PQ, MSHR and L1I lines.
func prefetchMeta(set, way int, tag uint16) uint64 {
	return 1 | uint64(tag)<<1 | uint64(set)<<11 | uint64(way)<<23
}

func decodeMeta(meta uint64) (set, way int, tag uint16, ok bool) {
	if meta&1 == 0 {
		return 0, 0, 0, false
	}
	return int(meta >> 11 & 0xFFF), int(meta >> 23 & 0x3F), uint16(meta >> 1 & 0x3FF), true
}

// OnAccess implements prefetch.Prefetcher: basic-block tracking and
// prefetch triggering (§III-A1, §III-A3) plus timely/late confidence
// updates (§III-B1).
func (e *Entangling) OnAccess(ev cache.AccessEvent) {
	// Confidence updates from prefetch outcome signals.
	if ev.Hit && ev.FirstUse {
		e.updateConfidence(ev.Meta, ev.LineAddr, +1)
	}
	if ev.LatePrefetch {
		e.updateConfidence(ev.Meta, ev.LineAddr, -1)
	}

	if e.cfg.Variant == VariantEnt {
		// Raw-line entangling: every access is its own "head".
		e.hist.push(ev.LineAddr, wrapTS(ev.Cycle), 0)
	} else {
		e.trackBasicBlock(ev)
	}

	// Only misses to basic-block heads carry an MSHR history pointer;
	// for other misses no source is searched — they are covered by
	// whole-block prefetching from their head (§III-A2). VariantEnt
	// treats every line as a head.
	isHead := e.cfg.Variant == VariantEnt || (e.bbValid && ev.LineAddr == e.bbHead)
	if !ev.Hit && isHead {
		// The miss allocates an MSHR entry carrying a pointer into the
		// history; capture the pre-miss candidate sources it refers to.
		if slot := e.pendingSlot(ev.LineAddr); slot != nil {
			slot.line = ev.LineAddr
			slot.valid = true
			e.hist.snapshotInto(&slot.snap, ev.LineAddr)
		}
	}

	e.trigger(ev.Cycle, ev.LineAddr)
}

// trackBasicBlock updates the head/size registers and, on block
// completion, records the block in the Entangled table and the History
// buffer (merging quasi-consecutive blocks when configured).
func (e *Entangling) trackBasicBlock(ev cache.AccessEvent) {
	line := ev.LineAddr
	if e.bbValid {
		switch {
		case line == e.bbHead+uint64(e.bbSize)+1:
			// Next consecutive line: the block grows; keep the history
			// entry's size field current.
			if e.bbSize < 63 {
				e.bbSize++
				e.hist.updateSize(e.bbPos, e.bbHead, e.bbSize)
			}
			return
		case line >= e.bbHead && line <= e.bbHead+uint64(e.bbSize):
			// Re-access within the current block (redirect replay).
			return
		}
		// Block completed: try to merge it into an earlier
		// quasi-consecutive block (§III-B2). On success the absorbing
		// head's recorded size grows and the merged block is recorded
		// in neither the history nor the Entangled table — that is the
		// table-pressure reduction merging exists for.
		mergedAway := false
		if e.cfg.Variant == VariantFull && e.cfg.MergeWindow > 0 {
			if head, msize, ok := e.hist.merge(e.bbHead, e.bbSize, e.bbTS, e.cfg.MergeWindow, e.bbPos); ok {
				e.stats.Merges++
				e.hist.invalidate(e.bbPos, e.bbHead)
				e.recordSize(head, msize)
				mergedAway = true
			}
		}
		if !mergedAway {
			e.recordSize(e.bbHead, e.bbSize)
		}
	}
	// Start tracking the new block: pushed at first access so the
	// timestamp is the access time.
	e.bbHead = line
	e.bbSize = 0
	e.bbValid = true
	e.bbTS = wrapTS(ev.Cycle)
	e.bbPos = e.hist.push(line, e.bbTS, 0)
}

// trigger checks the Entangled table on an access and issues the
// prefetches: the rest of the current basic block and, per confident
// destination, the destination's whole basic block (§III-A3).
func (e *Entangling) trigger(cycle uint64, line uint64) {
	key := e.srcKey(line)
	entry, set, way := e.table.lookupPos(key)
	notBefore := cycle + e.cfg.TableLatency + e.cfg.RetireDelay

	// (1) The current basic block. In the split design the size comes
	// from the dedicated size table even when no pairs exist.
	if e.cfg.Variant != VariantEnt {
		var bbSize uint8
		if e.sizes != nil {
			bbSize, _ = e.sizes.lookup(line)
		} else if entry != nil {
			bbSize = entry.bbSize
		}
		if bbSize > 0 && entry == nil {
			e.stats.TableHits++
		}
		for i := uint64(1); i <= uint64(bbSize); i++ {
			e.issuer.Prefetch(notBefore, line+i, 0)
			e.stats.BBLinesPrefetched++
		}
	}
	if entry == nil {
		return
	}
	e.stats.TableHits++
	if e.table.lines[set*e.table.ways+way] != key {
		e.table.aliasHits++
	}
	meta := prefetchMeta(set, way, e.table.tag(key))
	if e.cfg.Variant == VariantBB {
		return
	}

	// (2) Each confident destination and its basic block.
	withBB := e.cfg.Variant == VariantFull || e.cfg.Variant == VariantBBEntBB
	// Work on a copy: issuing prefetches must not be confused by
	// concurrent slice mutation if the issuer calls back synchronously.
	for _, d := range entry.dstSlots() {
		if d.conf == 0 {
			continue
		}
		e.stats.DstFound++
		dst := decompressDst(e.cfg.Space, int(entry.mode), key, compressDst(e.cfg.Space, int(entry.mode), d.line))
		e.issuer.Prefetch(notBefore, dst, meta)
		if !withBB {
			continue
		}
		// Extra search to find the destination's block size (§III-C2).
		e.table.extraLookups++
		for i := uint64(1); i <= uint64(e.blockSize(dst)); i++ {
			e.issuer.Prefetch(notBefore, dst+i, 0)
			e.stats.DstBBLines++
		}
	}
}

// OnFill implements prefetch.Prefetcher: on a demanded fill (demand
// miss or late prefetch) of a tracked head, measure the latency and
// entangle the head with a source accessed at least that many cycles
// earlier (§III-A2).
func (e *Entangling) OnFill(ev cache.FillEvent) {
	if !ev.Demanded {
		return
	}
	slot := e.findPending(ev.LineAddr)
	if slot == nil {
		// No MSHR-held history pointer (e.g. not a tracked head):
		// covered by whole-block prefetching from its head.
		return
	}
	slot.valid = false

	latency := ev.Latency()
	if latency > tsMask/2 {
		latency = tsMask / 2
	}
	missTS := wrapTS(ev.IssueCycle)

	var candBuf [2]uint64
	candidates := slot.snap.sourcesInto(missTS, uint32(latency), candBuf[:0])
	if len(candidates) == 0 {
		return
	}
	src := candidates[0]
	dst := ev.LineAddr
	if src == dst {
		return
	}
	// Second-source fallback (§III-B3): if the chosen source's
	// destination array is full, try an earlier source with room.
	srcKey := e.srcKey(src)
	if se := e.table.lookup(srcKey); se != nil && !e.table.hasFreeDst(se, srcKey, dst) && len(candidates) > 1 {
		src2 := e.srcKey(candidates[1])
		if src2 != dst {
			if se2 := e.table.lookup(src2); se2 != nil && e.table.hasFreeDst(se2, src2, dst) {
				e.table.addDst(src2, dst)
				e.stats.PairsInserted++
				return
			}
		}
	}
	e.table.addDst(srcKey, dst)
	e.stats.PairsInserted++
}

// OnEvict implements prefetch.Prefetcher: an unused prefetched line is
// a wrong/early prefetch; decrease the pair's confidence (§III-B1).
func (e *Entangling) OnEvict(ev cache.EvictEvent) {
	if ev.Prefetched && !ev.Accessed {
		e.updateConfidence(ev.Meta, ev.LineAddr, -1)
	}
}

// OnPrefetchFeedback implements cache.FeedbackSink: Entangling
// counts late and useless outcomes of its own prefetches. (Confidence
// already throttles via OnEvict/OnAccess; these counters expose the
// timeliness signal a distance-adaptive variant would consume.)
func (e *Entangling) OnPrefetchFeedback(fb prefetch.Feedback) {
	switch fb.Kind {
	case prefetch.FeedbackLate:
		e.stats.FeedbackLate++
	case prefetch.FeedbackUseless:
		e.stats.FeedbackUseless++
	}
}

// OnBranch implements prefetch.Prefetcher. The base design is
// deliberately independent of branch-prediction structures (§V); only
// the rejected ContextBits variant folds the call context in.
func (e *Entangling) OnBranch(ev prefetch.BranchEvent) {
	if e.cfg.ContextBits == 0 {
		return
	}
	if ev.Type.IsCall() && ev.Taken {
		if len(e.ctxStack) < 64 {
			e.ctxStack = append(e.ctxStack, splitmixCtx(ev.Target))
		}
	} else if ev.Type == trace.Return {
		if len(e.ctxStack) > 0 {
			e.ctxStack = e.ctxStack[:len(e.ctxStack)-1]
		}
	}
}

// splitmixCtx hashes a call target into a context token.
func splitmixCtx(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// updateConfidence adjusts the confidence of the pair identified by the
// prefetch metadata and the destination line. Stale positions (entry
// reallocated since the prefetch was issued) are detected by tag
// mismatch and ignored, as the hardware would.
func (e *Entangling) updateConfidence(meta uint64, dst uint64, delta int) {
	set, way, tag, ok := decodeMeta(meta)
	if !ok {
		return
	}
	entry := e.table.entryAt(set, way, tag)
	if entry == nil {
		return
	}
	for i := 0; i < entry.ndst; i++ {
		if entry.dsts[i].line != dst {
			continue
		}
		if delta > 0 {
			if entry.dsts[i].conf < maxConf {
				entry.dsts[i].conf++
			}
			e.stats.ConfidenceUp++
		} else {
			e.stats.ConfidenceDown++
			if entry.dsts[i].conf > 0 {
				entry.dsts[i].conf--
			}
			if entry.dsts[i].conf == 0 {
				// Invalid pair: drop it and relax the mode.
				e.table.dropDst(entry, dst)
			}
		}
		return
	}
}
