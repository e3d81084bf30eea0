package stats

// This file defines the observability counter blocks of the
// prefetch-lifecycle layer: a per-prefetch outcome breakdown (the
// timely / late / early / inaccurate classification MANA and the
// cache-management literature rank prefetchers by) and a top-down
// attribution of front-end stall cycles to their causes. Both are
// plain counter structs with window subtraction, mirroring
// cache.Stats, so the CPU can report them per measurement window.

// PrefetchLifecycle classifies every prefetch that brought a line into
// the L1I by its eventual fate:
//
//   - timely:        a demand access hit the prefetched line before
//     anything else touched it — the miss latency was fully hidden.
//   - late:          a demand access arrived while the prefetch was
//     still in flight — only part of the latency was hidden
//     (LateCyclesSaved records how much).
//   - early-evicted: the line was evicted unused but demanded again
//     later — the prediction was right, the timing was not.
//   - inaccurate:    the line was evicted unused and never demanded —
//     pure pollution.
type PrefetchLifecycle struct {
	// Timely counts first-use demand hits on prefetched lines.
	Timely uint64
	// Late counts demand misses that merged with an in-flight
	// prefetch.
	Late uint64
	// EvictedUnused counts prefetched lines evicted without a demand
	// access (early-evicted + inaccurate).
	EvictedUnused uint64
	// EarlyEvicted counts evicted-unused lines that a later demand
	// access asked for again: the address was right, the prefetch was
	// too early (or the cache too small).
	EarlyEvicted uint64
	// LateCyclesSaved sums, over late prefetches, the portion of the
	// miss latency the in-flight prefetch had already covered when the
	// demand arrived.
	LateCyclesSaved uint64
	// LateCyclesShort sums the latency late prefetches failed to hide
	// (the demand still waited this many cycles for the fill).
	LateCyclesShort uint64
	// LeadCycles sums, over timely hits, the fill-to-first-use lead
	// (how far ahead of need the line arrived).
	LeadCycles uint64
}

// Inaccurate returns the evicted-unused prefetches never demanded
// again — the pollution component of the breakdown.
func (l PrefetchLifecycle) Inaccurate() uint64 {
	if l.EarlyEvicted > l.EvictedUnused {
		return 0
	}
	return l.EvictedUnused - l.EarlyEvicted
}

// MeanLead returns the average fill-to-use lead of timely prefetches.
func (l PrefetchLifecycle) MeanLead() float64 {
	if l.Timely == 0 {
		return 0
	}
	return float64(l.LeadCycles) / float64(l.Timely)
}

// MeanSaved returns the average cycles a late prefetch still saved.
func (l PrefetchLifecycle) MeanSaved() float64 {
	if l.Late == 0 {
		return 0
	}
	return float64(l.LateCyclesSaved) / float64(l.Late)
}

// Sub returns l - o field-wise, for measurement-window extraction.
func (l PrefetchLifecycle) Sub(o PrefetchLifecycle) PrefetchLifecycle {
	return PrefetchLifecycle{
		Timely:          l.Timely - o.Timely,
		Late:            l.Late - o.Late,
		EvictedUnused:   l.EvictedUnused - o.EvictedUnused,
		EarlyEvicted:    l.EarlyEvicted - o.EarlyEvicted,
		LateCyclesSaved: l.LateCyclesSaved - o.LateCyclesSaved,
		LateCyclesShort: l.LateCyclesShort - o.LateCyclesShort,
		LeadCycles:      l.LeadCycles - o.LeadCycles,
	}
}

// StallBreakdown attributes front-end stall cycles to their causes.
// Each bucket counts cycles a pipeline stage waited beyond its
// no-stall schedule; Total is the sum of the buckets by construction,
// so the attribution is complete (nothing is left unexplained).
type StallBreakdown struct {
	// L1IMiss counts cycles fetch waited on the instruction cache
	// beyond the hit latency (true misses, late prefetches and
	// MSHR-full backpressure).
	L1IMiss uint64
	// BTBMiss counts redirect cycles from taken branches whose target
	// missed the BTB (caught at decode).
	BTBMiss uint64
	// Mispredict counts redirect cycles from direction or target
	// mispredictions (caught at execute).
	Mispredict uint64
	// FTQFull counts cycles the prediction engine waited because it was
	// FTQDepth blocks ahead of fetch (downstream backpressure).
	FTQFull uint64
	// ROBFull counts cycles dispatch waited on ROB occupancy.
	ROBFull uint64
}

// Total returns the attributed stall cycles (the sum of all buckets).
func (s StallBreakdown) Total() uint64 {
	return s.L1IMiss + s.BTBMiss + s.Mispredict + s.FTQFull + s.ROBFull
}

// Sub returns s - o field-wise, for measurement-window extraction.
func (s StallBreakdown) Sub(o StallBreakdown) StallBreakdown {
	return StallBreakdown{
		L1IMiss:    s.L1IMiss - o.L1IMiss,
		BTBMiss:    s.BTBMiss - o.BTBMiss,
		Mispredict: s.Mispredict - o.Mispredict,
		FTQFull:    s.FTQFull - o.FTQFull,
		ROBFull:    s.ROBFull - o.ROBFull,
	}
}
