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
type TimingCache struct {
	cfg TimingConfig
	arr *lru.Sets
	// fillReady, parallel to arr's slots, is the cycle the slot's data
	// arrives when non-zero (tags install at access time; the data may
	// still be in flight). Storing it per slot replaces a
	// lineAddr-keyed map on the hottest simulation path.
	fillReady []uint64
	next      Level
	stats     Stats

	busyUntil uint64
}

// NewTimingCache builds a level backed by next.
func NewTimingCache(cfg TimingConfig, next Level) *TimingCache {
	if next == nil {
		panic("cache: TimingCache needs a next level")
	}
	arr := lru.New(cfg.Sets, cfg.Ways)
	return &TimingCache{
		cfg:       cfg,
		arr:       arr,
		fillReady: make([]uint64, arr.Len()),
		next:      next,
	}
}

// Stats returns a snapshot pointer of the level's counters.
func (c *TimingCache) Stats() *Stats { return &c.stats }

// Name returns the configured level name.
func (c *TimingCache) Name() string { return c.cfg.Name }

// Access implements Level.
func (c *TimingCache) Access(now uint64, lineAddr uint64, prefetch bool) uint64 {
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

	// One pass finds the hit way or, on a miss, installs the tag now
	// into the victim way; the slot then remembers the true
	// data-arrival time (eviction discards it along with the tag).
	i, miss, evicted := c.arr.Ensure(lineAddr, lineAddr)
	if !miss {
		c.stats.Hits++
		c.stats.Reads++
		ready := start + c.cfg.Latency
		if f := c.fillReady[i]; f != 0 {
			if f > now {
				// Data still in flight from the earlier miss.
				c.stats.MSHRMerges++
				if f+c.cfg.Latency > ready {
					ready = f + c.cfg.Latency
				}
			} else {
				c.fillReady[i] = 0
			}
		}
		return ready
	}

	c.stats.Misses++
	if evicted {
		c.stats.Evictions++
	}
	fillReady := c.next.Access(start+c.cfg.Latency, lineAddr, prefetch)
	c.fillReady[i] = fillReady
	c.stats.Fills++
	c.stats.Writes++
	return fillReady + c.cfg.Latency
}

// Contains reports whether lineAddr currently has a tag in the level
// (used by tests and the Ideal prefetcher's pollution model).
func (c *TimingCache) Contains(lineAddr uint64) bool {
	return c.arr.Find(lineAddr, lineAddr) >= 0
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
