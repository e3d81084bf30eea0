package cache

import "entangling/internal/lru"

// Level is anything that can serve a line request: the L2, the LLC,
// and DRAM implement it. Access returns the cycle at which the
// requested line's data is available to the requester.
type Level interface {
	Access(now uint64, lineAddr uint64, prefetch bool) (ready uint64)
}

// TimingConfig sizes a timing cache level.
type TimingConfig struct {
	Name       string
	Sets, Ways int
	// Latency is the hit latency in cycles.
	Latency uint64
	// ServiceInterval is the minimum spacing between served requests
	// (bandwidth model); 0 means unlimited bandwidth.
	ServiceInterval uint64
}

// TimingCache is a non-L1I cache level (L1D, L2, LLC): it models
// hit/miss timing, bandwidth contention and in-flight fills, but does
// not carry prefetcher metadata. State (tags) updates at access time;
// the per-line fillReady keeps latency honest for accesses that race
// an ongoing fill.
//
// An access is two steps. The tag step (Tags) finds the line's way or
// installs it, and depends only on the order of the addresses. The
// timing step (Timed) applies bandwidth, the fill-ready cycle, the
// counters and the next level's latency. Access runs both; a level
// built by NewTimingStage holds no tag array and runs only the timing
// step, with a tag outcome computed ahead of it.
type TimingCache struct {
	cfg  TimingConfig
	tags Tags
	// fillReady, parallel to the tag slots, is the cycle the slot's
	// data arrives when non-zero (tags install at access time; the data
	// may still be in flight). Storing it per slot replaces a
	// lineAddr-keyed map on the hottest simulation path.
	fillReady []uint64
	next      Level
	stats     Stats

	busyUntil uint64
}

// Tag is the tag step's outcome for one access: the way that holds
// the line afterwards, whether the access missed (and installed the
// line there), and whether that install replaced a valid line.
type Tag struct {
	Way           int
	Miss, Evicted bool
}

// Tags is a timing level's tag array on its own. Its Ensure is the tag
// step TimingCache.Access runs, for a caller that runs the tag step
// over a whole address sequence ahead of the timing step.
type Tags struct {
	// arr is nil in a timing stage (NewTimingStage).
	arr  *lru.Sets
	idx  lru.Index
	ways int
}

// NewTags returns an empty tag array of cfg's shape. It panics unless
// cfg.Sets and cfg.Ways are positive.
func NewTags(cfg TimingConfig) *Tags {
	return &Tags{arr: lru.New(cfg.Sets, cfg.Ways), idx: lru.NewIndex(cfg.Sets), ways: cfg.Ways}
}

// Ensure runs the tag step of an access to lineAddr.
func (t *Tags) Ensure(lineAddr uint64) Tag {
	slot, miss, evicted := t.ensure(lineAddr)
	return Tag{Way: slot - t.idx.Set(lineAddr)*t.ways, Miss: miss, Evicted: evicted}
}

// ensure finds the line's slot or, on a miss, installs the tag now
// into the victim way, in one pass over the set.
func (t *Tags) ensure(lineAddr uint64) (slot int, miss, evicted bool) {
	return t.arr.Ensure(lineAddr, lineAddr)
}

// NewTimingCache builds a level backed by next.
func NewTimingCache(cfg TimingConfig, next Level) *TimingCache {
	c := NewTimingStage(cfg, next)
	c.tags = *NewTags(cfg)
	return c
}

// NewTimingStage builds a level without a tag array, for a caller
// that runs the tag step itself (see Tags): it serves Timed, and
// Access panics. It panics unless cfg.Sets and cfg.Ways are positive.
func NewTimingStage(cfg TimingConfig, next Level) *TimingCache {
	if next == nil {
		panic("cache: TimingCache needs a next level")
	}
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("cache: sets and ways must be positive")
	}
	return &TimingCache{
		cfg:       cfg,
		tags:      Tags{idx: lru.NewIndex(cfg.Sets), ways: cfg.Ways},
		fillReady: make([]uint64, cfg.Sets*cfg.Ways),
		next:      next,
	}
}

// Stats returns a snapshot pointer of the level's counters.
func (c *TimingCache) Stats() *Stats { return &c.stats }

// Name returns the configured level name.
func (c *TimingCache) Name() string { return c.cfg.Name }

// Access implements Level: the tag step, then the timing step.
func (c *TimingCache) Access(now uint64, lineAddr uint64, prefetch bool) uint64 {
	slot, miss, evicted := c.tags.ensure(lineAddr)
	return c.timed(now, lineAddr, prefetch, slot, miss, evicted)
}

// Timed is the timing step alone of a demand access to lineAddr whose
// tag step, run elsewhere over the same address sequence, gave t.
func (c *TimingCache) Timed(now, lineAddr uint64, t Tag) uint64 {
	slot := c.tags.idx.Set(lineAddr)*c.tags.ways + t.Way
	return c.timed(now, lineAddr, false, slot, t.Miss, t.Evicted)
}

// timed is the timing step of an access whose tag step left the line
// in slot. On a miss the slot remembers the true data-arrival time
// (eviction discards it along with the tag).
func (c *TimingCache) timed(now, lineAddr uint64, prefetch bool, slot int, miss, evicted bool) uint64 {
	c.stats.Accesses++
	c.stats.TagProbes++
	if prefetch {
		c.stats.PrefetchIssued++
	}

	// Bandwidth: the request may queue behind earlier ones.
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + c.cfg.ServiceInterval

	if !miss {
		c.stats.Hits++
		c.stats.Reads++
		ready := start + c.cfg.Latency
		if f := c.fillReady[slot]; f != 0 {
			if f > now {
				// Data still in flight from the earlier miss.
				c.stats.MSHRMerges++
				if f+c.cfg.Latency > ready {
					ready = f + c.cfg.Latency
				}
			} else {
				c.fillReady[slot] = 0
			}
		}
		return ready
	}

	c.stats.Misses++
	if evicted {
		c.stats.Evictions++
	}
	fillReady := c.next.Access(start+c.cfg.Latency, lineAddr, prefetch)
	c.fillReady[slot] = fillReady
	c.stats.Fills++
	c.stats.Writes++
	return fillReady + c.cfg.Latency
}

// DRAMConfig sizes the memory model.
type DRAMConfig struct {
	// Latency is the base access latency in cycles.
	Latency uint64
	// ServiceInterval models channel bandwidth.
	ServiceInterval uint64
	// JitterMask, when non-zero, adds hash(lineAddr, slot) & JitterMask
	// cycles of deterministic latency variation (bank conflicts, row
	// misses). Must be a low-bit mask, e.g. 0x3F.
	JitterMask uint64
}

// DRAM is the final level.
type DRAM struct {
	cfg       DRAMConfig
	busyUntil uint64
	// Stats.
	Reads uint64
}

// NewDRAM builds the memory model.
func NewDRAM(cfg DRAMConfig) *DRAM { return &DRAM{cfg: cfg} }

// Access implements Level.
func (d *DRAM) Access(now uint64, lineAddr uint64, prefetch bool) uint64 {
	d.Reads++
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + d.cfg.ServiceInterval
	lat := d.cfg.Latency
	if d.cfg.JitterMask != 0 {
		lat += mix(lineAddr^now) & d.cfg.JitterMask
	}
	return start + lat
}

// mix is splitmix64's finalizer, used for deterministic jitter.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Translator maps virtual line addresses to physical line addresses
// with 4KB pages. Physical pages are assigned by a deterministic hash,
// so consecutive virtual pages are (almost) never physically
// contiguous — the property §IV-E says slightly reduces prefetcher
// coverage when training on physical addresses.
type Translator struct {
	// PhysBits bounds the physical address space (paper: 48-bit
	// virtual, smaller physical).
	PhysBits int
	// Salt decorrelates mappings between workloads.
	Salt uint64
}

// pageBits for 4KB pages over 64B lines: 6 line-offset bits per page.
const pageOffsetLineBits = 12 - LineBits

// Translate maps a virtual line address to a physical line address.
func (t *Translator) Translate(virtLine uint64) uint64 {
	bits := t.PhysBits
	if bits == 0 {
		bits = 42 // 48-bit physical byte space -> 42-bit line space
	}
	vpn := virtLine >> pageOffsetLineBits
	offset := virtLine & (1<<pageOffsetLineBits - 1)
	ppn := mix(vpn^t.Salt) & (1<<(bits-pageOffsetLineBits) - 1)
	return ppn<<pageOffsetLineBits | offset
}
