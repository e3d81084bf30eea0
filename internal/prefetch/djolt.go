package prefetch

import (
	"entangling/internal/cache"
	"entangling/internal/lru"
	"entangling/internal/trace"
)

// DJolt (Nakamura et al. [35], §IV-B) refines RDIP with (i) more
// accurate context signatures and (ii) a dual look-ahead mechanism: a
// short-range table keyed by the recent call/return context covers
// nearby misses, while a long-range table keyed by a deeper context
// prefetches "distant jolts" far ahead of fetch, so both short- and
// long-latency misses can be timely.
//
// Configuration as evaluated: 8K-entry miss tables, 125KB total.
type DJolt struct {
	Base
	issuer Issuer

	short *sigTable
	long  *sigTable

	// callHist is the rolling call/return context the signatures hash.
	callHist []uint64

	// burst dedupes lines within one trigger: the two ranges and
	// adjacent footprints overlap, and the PQ would reject the repeat
	// anyway — skipping it here saves the wasted tag probe.
	burst map[uint64]bool

	// Lifecycle feedback counters (observability; a throttling policy
	// can key off these without new plumbing).
	FeedbackLate    uint64
	FeedbackUseless uint64
}

// sigTable is a signature-indexed miss table: D-JOLT's two ranges and
// RDIP's one. Each signature's entry holds up to six trigger lines,
// each with an 8-bit footprint of the lines that follow it.
type sigTable struct {
	tags     *lru.Sets
	entries  []sigEntry // parallel to tags' slots
	depth    int        // D-JOLT signature depth in call/return events
	setShift uint       // the set index hashes sig>>setShift
}

type sigEntry struct {
	triggers [6]sigTrigger
	n        int
}

type sigTrigger struct {
	line      uint64
	footprint uint8
}

func newSigTable(entriesN, depth int, setShift uint) *sigTable {
	tags := lru.New(entriesN/4, 4)
	return &sigTable{
		tags:     tags,
		entries:  make([]sigEntry, tags.Len()),
		depth:    depth,
		setShift: setShift,
	}
}

func (t *sigTable) signature(hist []uint64) uint64 {
	var sig uint64
	n := len(hist)
	for i := 0; i < t.depth && i < n; i++ {
		sig = sig<<9 ^ sig>>55 ^ hist[n-1-i]
	}
	return sig * 0x9E3779B97F4A7C15
}

// train folds a miss on line into sig's entry: into the footprint of
// a trigger it follows closely, else as a new trigger, dropping the
// oldest when all six are taken (the entry holds the context's most
// recent misses).
func (t *sigTable) train(sig uint64, line uint64) {
	slot, fresh, _ := t.tags.Ensure(sig>>t.setShift, sig)
	e := &t.entries[slot]
	if fresh {
		*e = sigEntry{}
	}
	for i := 0; i < e.n; i++ {
		tr := &e.triggers[i]
		if line > tr.line && line-tr.line <= 8 {
			tr.footprint |= 1 << (line - tr.line - 1)
			return
		}
		if tr.line == line {
			return
		}
	}
	if e.n < len(e.triggers) {
		e.triggers[e.n] = sigTrigger{line: line}
		e.n++
		return
	}
	copy(e.triggers[:], e.triggers[1:])
	e.triggers[len(e.triggers)-1] = sigTrigger{line: line}
}

// prefetch issues sig's triggers and their footprints. A non-nil seen
// dedupes lines across calls within one trigger event.
func (t *sigTable) prefetch(issuer Issuer, cycle uint64, sig uint64, seen map[uint64]bool) {
	slot := t.tags.Lookup(sig>>t.setShift, sig)
	if slot < 0 {
		return
	}
	e := &t.entries[slot]
	issue := func(line uint64) {
		if seen != nil {
			if seen[line] {
				return
			}
			seen[line] = true
		}
		issuer.Prefetch(cycle, line, 0)
	}
	for i := 0; i < e.n; i++ {
		tr := e.triggers[i]
		issue(tr.line)
		for b := uint64(0); b < 8; b++ {
			if tr.footprint&(1<<b) != 0 {
				issue(tr.line + b + 1)
			}
		}
	}
}

// NewDJolt returns the paper's D-JOLT configuration (125KB).
func NewDJolt(issuer Issuer) *DJolt {
	return &DJolt{
		Base:   Base{PfName: "djolt", Bits: uint64(125 * 1024 * 8)},
		issuer: issuer,
		short:  newSigTable(8192, 2, 33),
		long:   newSigTable(8192, 6, 33),
	}
}

// OnBranch implements Prefetcher.
func (p *DJolt) OnBranch(ev BranchEvent) {
	switch {
	case ev.Type.IsCall() && ev.Taken:
		p.callHist = append(p.callHist, ev.Target>>4)
		if len(p.callHist) > 16 {
			p.callHist = p.callHist[1:]
		}
	case ev.Type == trace.Return:
		p.callHist = append(p.callHist, ev.PC>>4|1)
		if len(p.callHist) > 16 {
			p.callHist = p.callHist[1:]
		}
	default:
		return
	}
	if p.burst == nil {
		p.burst = make(map[uint64]bool, 32)
	} else {
		clear(p.burst)
	}
	p.short.prefetch(p.issuer, ev.Cycle, p.short.signature(p.callHist), p.burst)
	p.long.prefetch(p.issuer, ev.Cycle, p.long.signature(p.callHist), p.burst)
}

// OnAccess implements Prefetcher: a fall-through next-line component
// covers sequential misses (the original's third engine), and misses
// train both signature ranges. The long-range table is trained with
// the context several events back (its look-ahead), which is what lets
// it fire early next time.
func (p *DJolt) OnAccess(ev cache.AccessEvent) {
	p.issuer.Prefetch(ev.Cycle, ev.LineAddr+1, 0)
	if ev.Hit {
		return
	}
	p.issuer.Prefetch(ev.Cycle, ev.LineAddr+2, 0)
	p.short.train(p.short.signature(p.callHist), ev.LineAddr)
	if len(p.callHist) > 4 {
		// The long-range context as of 4 events ago.
		p.long.train(p.long.signature(p.callHist[:len(p.callHist)-4]), ev.LineAddr)
	}
}

// OnPrefetchFeedback implements cache.FeedbackSink: D-JOLT records how
// many of its prefetches arrived late or went unused.
func (p *DJolt) OnPrefetchFeedback(fb Feedback) {
	switch fb.Kind {
	case FeedbackLate:
		p.FeedbackLate++
	case FeedbackUseless:
		p.FeedbackUseless++
	}
}

func init() {
	Register("djolt", func(is Issuer) Prefetcher { return NewDJolt(is) })
}
