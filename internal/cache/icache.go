package cache

import "entangling/internal/lru"

// This file implements the instrumented L1I: the cache the paper
// extends with timing and src-entangled information (Figure 4). MSHR
// entries carry the issue timestamp and an access bit; prefetch-queue
// entries carry the issue timestamp and opaque prefetcher metadata;
// lines carry the prefetch bit, the access bit and the metadata. The
// prefetcher observes the cache through the Listener event stream,
// which is exactly the information flow of Figure 5:
//
//	demand miss            -> AccessEvent{Hit:false}
//	late prefetch          -> AccessEvent{Hit:false, MSHRHit:true, LatePrefetch:true}
//	timely prefetch hit    -> AccessEvent{Hit:true, WasPrefetched:true, FirstUse:true}
//	cache fill             -> FillEvent (with measured latency)
//	eviction of unused pf  -> EvictEvent{Prefetched:true, Accessed:false}

// AccessEvent describes one demand access to the L1I.
type AccessEvent struct {
	// Cycle is when the access probes the cache.
	Cycle uint64
	// LineAddr is the accessed line.
	LineAddr uint64
	// Hit is true when the line was present.
	Hit bool
	// WasPrefetched: the hit line was brought in by a prefetch.
	WasPrefetched bool
	// FirstUse: the hit line had not been demand-accessed since its
	// fill (the paper's timely-prefetch detection: access bit unset).
	FirstUse bool
	// MSHRHit: the miss matched an in-flight fill.
	MSHRHit bool
	// LatePrefetch: the matched in-flight fill was a prefetch that had
	// not been demanded yet (the paper's late-prefetch detection).
	LatePrefetch bool
	// Meta is the prefetcher metadata carried by the line (hits) or
	// the MSHR entry (merged misses). Zero otherwise.
	Meta uint64
	// IssueCycle and ReadyCycle describe the matched in-flight request
	// on MSHR merges (MSHRHit): when it was issued and when its fill
	// completes. Cycle-IssueCycle is the latency a late prefetch
	// already covered; ReadyCycle-Cycle is what it failed to hide.
	// Both are zero when MSHRHit is false.
	IssueCycle uint64
	ReadyCycle uint64
}

// FillEvent describes a line installing into the L1I.
type FillEvent struct {
	// Cycle is the fill time.
	Cycle uint64
	// LineAddr is the filled line.
	LineAddr uint64
	// WasPrefetch: the request was issued by the prefetcher.
	WasPrefetch bool
	// Demanded is the MSHR access bit at fill time: true for demand
	// misses and for prefetches a demand merged with while in flight.
	Demanded bool
	// IssueCycle is when the request was issued (the MSHR timestamp the
	// paper adds); Cycle-IssueCycle is the measured miss latency.
	IssueCycle uint64
	// Meta is the prefetcher metadata carried by the request.
	Meta uint64
}

// Latency returns the measured fill latency in cycles.
func (f *FillEvent) Latency() uint64 { return f.Cycle - f.IssueCycle }

// EvictEvent describes a line leaving the L1I.
type EvictEvent struct {
	Cycle    uint64
	LineAddr uint64
	// Prefetched and Accessed are the line's bits at eviction;
	// Prefetched && !Accessed is the paper's wrong/early prefetch
	// signal.
	Prefetched bool
	Accessed   bool
	Meta       uint64
}

// Listener observes L1I events; prefetchers and the lifecycle tracker
// implement it.
type Listener interface {
	OnAccess(AccessEvent)
	OnFill(FillEvent)
	OnEvict(EvictEvent)
}

// ICacheConfig sizes the L1I.
type ICacheConfig struct {
	Sets, Ways int
	// Latency is the hit latency in cycles (paper: 4).
	Latency uint64
	// MSHRs is the miss-status-holding-register count (paper: 10).
	MSHRs int
	// PQSize is the prefetch queue depth (paper: 32).
	PQSize int
	// Ideal makes every demand access a hit while still sending misses
	// to the next level (the paper's Ideal prefetcher, which models the
	// pollution of the L2/LLC but a perfect L1I).
	Ideal bool
}

type mshrEntry struct {
	lineAddr   uint64
	issueCycle uint64
	readyCycle uint64
	meta       uint64
	valid      bool
	isPrefetch bool
	accessBit  bool
}

type pqEntry struct {
	lineAddr     uint64
	meta         uint64
	readyToIssue uint64
}

// ICache is the instrumented L1I.
type ICache struct {
	cfg ICacheConfig
	// arr holds the tags and recency; lines is the payload parallel to
	// its slots.
	arr      *lru.Sets
	lines    []line
	next     Level
	listener Listener
	stats    Stats

	mshr []mshrEntry
	// pq is a fixed-capacity ring buffer (the paper's 32-entry PQ):
	// pqHead indexes the oldest entry and pqLen counts occupancy. A ring
	// keeps the steady-state loop allocation-free, where popping via
	// re-slicing would shed capacity and force append to reallocate.
	pq     []pqEntry
	pqHead int
	pqLen  int

	now           uint64
	nextIssueSlot uint64
	// nextFill is the earliest readyCycle among valid MSHR entries
	// (^0 when none), so AdvanceTo can skip the fill scan on the many
	// calls where no outstanding fill can have completed yet.
	nextFill uint64
}

// NewICache builds the L1I over next. listener may be nil.
func NewICache(cfg ICacheConfig, next Level, listener Listener) *ICache {
	if next == nil {
		panic("cache: ICache needs a next level")
	}
	if cfg.MSHRs <= 0 {
		panic("cache: ICache needs MSHRs > 0")
	}
	arr := lru.New(cfg.Sets, cfg.Ways)
	return &ICache{
		cfg:      cfg,
		arr:      arr,
		lines:    make([]line, arr.Len()),
		next:     next,
		listener: listener,
		mshr:     make([]mshrEntry, cfg.MSHRs),
		pq:       make([]pqEntry, cfg.PQSize),
		nextFill: ^uint64(0),
	}
}

// Stats exposes the counter block.
func (c *ICache) Stats() *Stats { return &c.stats }

// SetListener installs the event listener (used when the prefetcher is
// constructed after the cache).
func (c *ICache) SetListener(l Listener) { c.listener = l }

// Now returns the cache's internal clock (the latest time it has
// processed up to).
func (c *ICache) Now() uint64 { return c.now }

// AdvanceTo processes fills and prefetch issue up to cycle now.
func (c *ICache) AdvanceTo(now uint64) {
	if now < c.now {
		now = c.now
	}
	c.now = now
	for {
		progress := false
		// Apply completed fills in time order. The nextFill watermark
		// skips the scan when no outstanding fill can be due yet.
		if c.nextFill <= now {
			for {
				idx := -1
				for i := range c.mshr {
					e := &c.mshr[i]
					if e.valid && e.readyCycle <= now && (idx < 0 || e.readyCycle < c.mshr[idx].readyCycle) {
						idx = i
					}
				}
				if idx < 0 {
					break
				}
				c.applyFill(idx)
				progress = true
			}
			next := ^uint64(0)
			for i := range c.mshr {
				if c.mshr[i].valid && c.mshr[i].readyCycle < next {
					next = c.mshr[i].readyCycle
				}
			}
			c.nextFill = next
		}
		// Drain the prefetch queue as far as time and MSHRs allow.
		if c.pqLen > 0 && c.drainPQ(now) {
			progress = true
		}
		if !progress {
			return
		}
	}
}

// applyFill installs the line for MSHR entry idx.
func (c *ICache) applyFill(idx int) {
	e := c.mshr[idx]
	c.mshr[idx].valid = false

	c.install(e.readyCycle, e.lineAddr, line{
		prefetched: e.isPrefetch,
		accessed:   e.accessBit,
		meta:       e.meta,
	})
	c.stats.Fills++
	c.stats.Writes++
	if e.isPrefetch {
		c.stats.PrefetchFills++
	}
	if c.listener != nil {
		c.listener.OnFill(FillEvent{
			Cycle:       e.readyCycle,
			LineAddr:    e.lineAddr,
			WasPrefetch: e.isPrefetch,
			Demanded:    e.accessBit,
			IssueCycle:  e.issueCycle,
			Meta:        e.meta,
		})
	}
}

// install writes lineAddr with payload l into its set's victim way at
// cycle, evicting the line the way held, if any.
func (c *ICache) install(cycle, lineAddr uint64, l line) {
	i := c.arr.Victim(lineAddr)
	if c.arr.Valid(i) {
		v := c.lines[i]
		c.stats.Evictions++
		if v.prefetched && !v.accessed {
			c.stats.WrongPrefetches++
		}
		if c.listener != nil {
			c.listener.OnEvict(EvictEvent{
				Cycle:      cycle,
				LineAddr:   c.arr.Key(i),
				Prefetched: v.prefetched,
				Accessed:   v.accessed,
				Meta:       v.meta,
			})
		}
	}
	c.arr.Install(i, lineAddr)
	c.lines[i] = l
}

// drainPQ issues queued prefetches whose time has come, in order and
// as MSHRs allow. Issue is back-to-back: each issue time is at least
// the previous one (nextIssueSlot), with no per-cycle bound. Reports
// whether anything issued or was dropped.
func (c *ICache) drainPQ(now uint64) bool {
	progress := false
	for c.pqLen > 0 {
		head := c.pq[c.pqHead]
		t := head.readyToIssue
		if t < c.nextIssueSlot {
			t = c.nextIssueSlot
		}
		if t > now {
			return progress
		}
		// Probe the tag array; drop if present.
		c.stats.TagProbes++
		if c.arr.Find(head.lineAddr, head.lineAddr) >= 0 {
			c.stats.PrefetchDroppedHit++
			c.popPQ()
			c.nextIssueSlot = t
			progress = true
			continue
		}
		// Drop if it matches an in-flight request.
		if c.findMSHR(head.lineAddr) >= 0 {
			c.stats.PrefetchDroppedMSHR++
			c.popPQ()
			c.nextIssueSlot = t
			progress = true
			continue
		}
		free := c.freeMSHR()
		if free < 0 {
			// Blocked on MSHRs; retry after the next fill.
			return progress
		}
		ready := c.next.Access(t+c.cfg.Latency, head.lineAddr, true)
		c.mshr[free] = mshrEntry{
			lineAddr:   head.lineAddr,
			issueCycle: t,
			readyCycle: ready,
			meta:       head.meta,
			valid:      true,
			isPrefetch: true,
		}
		if ready < c.nextFill {
			c.nextFill = ready
		}
		c.stats.PrefetchIssued++
		c.popPQ()
		c.nextIssueSlot = t
		progress = true
	}
	return progress
}

// popPQ removes the oldest prefetch-queue entry.
func (c *ICache) popPQ() {
	c.pqHead++
	if c.pqHead == len(c.pq) {
		c.pqHead = 0
	}
	c.pqLen--
}

func (c *ICache) findMSHR(lineAddr uint64) int {
	for i := range c.mshr {
		if c.mshr[i].valid && c.mshr[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

func (c *ICache) freeMSHR() int {
	for i := range c.mshr {
		if !c.mshr[i].valid {
			return i
		}
	}
	return -1
}

// earliestFill returns the soonest readyCycle among valid MSHRs, or 0
// when none are valid.
func (c *ICache) earliestFill() uint64 {
	var best uint64
	found := false
	for i := range c.mshr {
		if c.mshr[i].valid && (!found || c.mshr[i].readyCycle < best) {
			best = c.mshr[i].readyCycle
			found = true
		}
	}
	return best
}

// DemandAccess performs a demand fetch of lineAddr at cycle now and
// returns the cycle at which the line's data is available to the fetch
// engine.
func (c *ICache) DemandAccess(now uint64, lineAddr uint64) uint64 {
	c.AdvanceTo(now)
	now = c.now
	c.stats.Accesses++
	c.stats.TagProbes++

	if i := c.arr.Lookup(lineAddr, lineAddr); i >= 0 {
		l := &c.lines[i]
		c.stats.Hits++
		c.stats.Reads++
		ev := AccessEvent{
			Cycle:         now,
			LineAddr:      lineAddr,
			Hit:           true,
			WasPrefetched: l.prefetched,
			FirstUse:      l.prefetched && !l.accessed,
			Meta:          l.meta,
		}
		if ev.FirstUse {
			c.stats.TimelyPrefetchHits++
		}
		l.accessed = true
		if c.listener != nil {
			c.listener.OnAccess(ev)
		}
		return now + c.cfg.Latency
	}

	if c.cfg.Ideal {
		// Perfect L1I: the access hits, but the line still travels
		// through the lower levels (pollution model).
		c.stats.Hits++
		c.stats.Reads++
		c.next.Access(now+c.cfg.Latency, lineAddr, false)
		c.install(now, lineAddr, line{accessed: true})
		c.stats.Fills++
		return now + c.cfg.Latency
	}

	c.stats.Misses++

	// Merge with an in-flight request?
	if idx := c.findMSHR(lineAddr); idx >= 0 {
		e := &c.mshr[idx]
		c.stats.MSHRMerges++
		ev := AccessEvent{
			Cycle:        now,
			LineAddr:     lineAddr,
			MSHRHit:      true,
			LatePrefetch: e.isPrefetch && !e.accessBit,
			Meta:         e.meta,
			IssueCycle:   e.issueCycle,
			ReadyCycle:   e.readyCycle,
		}
		if ev.LatePrefetch {
			c.stats.LatePrefetches++
		}
		e.accessBit = true
		if c.listener != nil {
			c.listener.OnAccess(ev)
		}
		return e.readyCycle + c.cfg.Latency
	}

	// True miss: if all MSHRs are busy the fetch engine stalls until a
	// slot survives. AdvanceTo's prefetch drain may re-fill a freed
	// slot, but every such steal consumes a bounded PQ entry, so this
	// loop terminates.
	issue := now
	free := c.freeMSHR()
	for free < 0 {
		wait := c.earliestFill()
		if wait <= c.now {
			wait = c.now + 1
		}
		c.AdvanceTo(wait)
		if issue < wait {
			issue = wait
		}
		free = c.freeMSHR()
	}
	ready := c.next.Access(issue+c.cfg.Latency, lineAddr, false)
	c.mshr[free] = mshrEntry{
		lineAddr:   lineAddr,
		issueCycle: now,
		readyCycle: ready,
		valid:      true,
		accessBit:  true,
	}
	if ready < c.nextFill {
		c.nextFill = ready
	}
	if c.listener != nil {
		c.listener.OnAccess(AccessEvent{Cycle: now, LineAddr: lineAddr})
	}
	return ready + c.cfg.Latency
}

// Prefetch enqueues a prefetch for lineAddr, issued no earlier than
// notBefore (the paper adds the Entangled-table access latency here so
// prefetch timing stays honest). meta is returned with every later
// event for this request/line. Reports whether the request was
// accepted (false: prefetch queue full, the paper's 32-entry PQ
// overflow).
func (c *ICache) Prefetch(notBefore uint64, lineAddr uint64, meta uint64) bool {
	c.stats.PrefetchRequested++
	// Probe the tag array up front: a request for a present line would
	// only waste a PQ slot until the drain-time check drops it anyway.
	c.stats.TagProbes++
	if c.arr.Find(lineAddr, lineAddr) >= 0 {
		c.stats.PrefetchDroppedHit++
		return true
	}
	if c.findMSHR(lineAddr) >= 0 {
		c.stats.PrefetchDroppedMSHR++
		return true
	}
	for k := 0; k < c.pqLen; k++ {
		i := c.pqHead + k
		if i >= len(c.pq) {
			i -= len(c.pq)
		}
		if c.pq[i].lineAddr == lineAddr {
			return true // already queued
		}
	}
	if c.pqLen >= c.cfg.PQSize {
		c.stats.PrefetchDroppedPQ++
		return false
	}
	if notBefore < c.now {
		notBefore = c.now
	}
	tail := c.pqHead + c.pqLen
	if tail >= len(c.pq) {
		tail -= len(c.pq)
	}
	c.pq[tail] = pqEntry{lineAddr: lineAddr, meta: meta, readyToIssue: notBefore}
	c.pqLen++
	return true
}
