// Package cache models the memory hierarchy of the paper's baseline
// (Table III): an instrumented L1I with MSHRs and a prefetch queue, an
// L1D, a shared L2, an LLC and DRAM.
//
// Timing uses latency propagation: a miss computes its fill time by
// recursively asking the next level, which accounts for its own hit
// latency, bandwidth (busy-until) contention and, for DRAM, a
// deterministic latency jitter. Fills are applied lazily when simulated
// time reaches them. This gives the variable, contended miss latencies
// that the Entangling prefetcher's timeliness mechanism is built
// around, without a global event queue.
package cache

// LineBits is log2 of the cache line size; all caches use 64-byte
// lines as in the paper.
const LineBits = 6

// LineAddr converts a byte address to a line address.
func LineAddr(addr uint64) uint64 { return addr >> LineBits }

// line is the L1I's payload for one way; the way's tag and recency
// live in the ICache's lru.Sets.
type line struct {
	// prefetched is set when the line was brought in by a prefetch.
	prefetched bool
	// accessed is the paper's per-line "access bit": cleared on a
	// prefetch fill, set on the first demand access.
	accessed bool
	// meta is opaque prefetcher metadata (the paper's src-entangled
	// field stored alongside L1I lines).
	meta uint64
}

// Stats counts the events the harness and the energy model consume.
type Stats struct {
	// Demand-side.
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// MSHRMerges counts demand accesses that matched an in-flight fill.
	MSHRMerges uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64

	// Prefetch-side (L1I only).
	PrefetchRequested   uint64 // calls to Prefetch()
	PrefetchDroppedPQ   uint64 // dropped: prefetch queue full
	PrefetchDroppedHit  uint64 // dropped: line already present
	PrefetchDroppedMSHR uint64 // dropped: matched in-flight request
	PrefetchIssued      uint64 // sent to the next level
	PrefetchFills       uint64 // prefetch fills that installed a line
	TimelyPrefetchHits  uint64 // demand hits on a not-yet-used prefetched line
	LatePrefetches      uint64 // demand misses merged with in-flight prefetches
	WrongPrefetches     uint64 // prefetched lines evicted unused

	// Energy accounting.
	TagProbes uint64
	Reads     uint64
	Writes    uint64
}

// Sub returns s - o field-wise; the harness uses it to discard warmup
// counts from a measurement window.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses:            s.Accesses - o.Accesses,
		Hits:                s.Hits - o.Hits,
		Misses:              s.Misses - o.Misses,
		MSHRMerges:          s.MSHRMerges - o.MSHRMerges,
		Fills:               s.Fills - o.Fills,
		Evictions:           s.Evictions - o.Evictions,
		Writebacks:          s.Writebacks - o.Writebacks,
		PrefetchRequested:   s.PrefetchRequested - o.PrefetchRequested,
		PrefetchDroppedPQ:   s.PrefetchDroppedPQ - o.PrefetchDroppedPQ,
		PrefetchDroppedHit:  s.PrefetchDroppedHit - o.PrefetchDroppedHit,
		PrefetchDroppedMSHR: s.PrefetchDroppedMSHR - o.PrefetchDroppedMSHR,
		PrefetchIssued:      s.PrefetchIssued - o.PrefetchIssued,
		PrefetchFills:       s.PrefetchFills - o.PrefetchFills,
		TimelyPrefetchHits:  s.TimelyPrefetchHits - o.TimelyPrefetchHits,
		LatePrefetches:      s.LatePrefetches - o.LatePrefetches,
		WrongPrefetches:     s.WrongPrefetches - o.WrongPrefetches,
		TagProbes:           s.TagProbes - o.TagProbes,
		Reads:               s.Reads - o.Reads,
		Writes:              s.Writes - o.Writes,
	}
}

// UsefulPrefetches is the number of prefetched lines that served at
// least one demand access (timely hits plus late-but-demanded
// prefetches), the numerator of the paper's accuracy metric.
func (s *Stats) UsefulPrefetches() uint64 { return s.TimelyPrefetchHits + s.LatePrefetches }

// Accuracy is useful prefetches over prefetches that actually brought
// a line in (the paper's "ratio of useful prefetches").
func (s *Stats) Accuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.UsefulPrefetches()) / float64(s.PrefetchFills)
}

// MissRatio is demand misses over demand accesses.
func (s *Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}
