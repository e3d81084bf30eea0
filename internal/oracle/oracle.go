// Package oracle implements the measurement methodology behind the
// paper's motivation figures (Figures 1 and 2): on a no-prefetch
// baseline it tracks every L1I miss and its measured latency, and
// computes how many discontinuities (taken branches) in advance a
// prefetch would have had to be issued for the miss to be covered
// timely — the per-miss optimal look-ahead distance.
//
// The oracle is registered as the prefetcher "oracle". It issues
// nothing, so a machine running it behaves exactly like the "no"
// baseline; it only observes the L1I and branch events every
// prefetcher receives.
package oracle

import (
	"entangling/internal/cache"
	"entangling/internal/prefetch"
	"entangling/internal/stats"
)

func init() {
	prefetch.Register("oracle", func(prefetch.Issuer) prefetch.Prefetcher { return New() })
}

// maxTracked is the largest distance bucket; larger distances land in
// the histogram's overflow bucket ("10+" in Figure 1).
const maxTracked = 10

// ringSize bounds the discontinuity timeline.
const ringSize = 4096

// LookaheadOracle observes a run and accumulates the distance
// histogram over the whole run, warmup included.
type LookaheadOracle struct {
	prefetch.Base

	// Distances histograms the per-miss required look-ahead distance
	// (buckets 1..10 plus overflow).
	Distances *stats.Histogram

	// ring holds the cycles of recent discontinuities.
	ring [ringSize]uint64
	pos  int
	n    int
}

// New creates an oracle.
func New() *LookaheadOracle {
	return &LookaheadOracle{
		Base:      prefetch.Base{PfName: "oracle"},
		Distances: stats.NewHistogram(1, maxTracked),
	}
}

// OnBranch implements prefetch.Prefetcher: taken branches are
// the discontinuities the look-ahead distance is measured in (§I,
// "the look-ahead distance represents the number of taken branches").
func (o *LookaheadOracle) OnBranch(ev prefetch.BranchEvent) {
	if !ev.Taken {
		return
	}
	o.ring[o.pos] = ev.Cycle
	o.pos = (o.pos + 1) % ringSize
	if o.n < ringSize {
		o.n++
	}
}

// OnFill implements prefetch.Prefetcher: every demanded fill is a miss whose
// latency is now known; find the smallest k such that issuing the
// prefetch at the k-th most recent discontinuity before the miss would
// have been at least latency cycles early.
func (o *LookaheadOracle) OnFill(ev cache.FillEvent) {
	if !ev.Demanded {
		return
	}
	latency := ev.Latency()
	missCycle := ev.IssueCycle
	if missCycle < latency {
		o.Distances.Add(1)
		return
	}
	deadline := missCycle - latency

	// Walk discontinuities newest-first; distance = 1 + number of
	// discontinuities after the deadline (and before the miss).
	d := 1
	for i := 1; i <= o.n; i++ {
		idx := (o.pos - i + ringSize) % ringSize
		t := o.ring[idx]
		if t > missCycle {
			// Predicted ahead of the miss (decoupled front-end);
			// irrelevant for the backward count.
			continue
		}
		if t <= deadline {
			o.Distances.Add(d)
			return
		}
		d++
		if d > maxTracked {
			break
		}
	}
	o.Distances.Add(maxTracked + 1) // overflow: ">10"
}
