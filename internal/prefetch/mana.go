package prefetch

import (
	"entangling/internal/cache"
	"entangling/internal/lru"
)

// MANA (Ansari et al. [5], §IV-B) is the representative BTB-directed
// spatial-region prefetcher: the instruction stream is chopped into
// spatial regions (a trigger line plus an 8-bit footprint of the
// following lines, the PIF-style compaction), and regions are chained
// by successor pointers. On a fetched trigger the chain is walked
// look-ahead regions forward, prefetching each region's footprint.
//
// This implementation keeps MANA's behavioural core (region
// compaction + chained look-ahead) without the HOBPT indirection the
// original uses to dedupe chain storage; storage budgets are reported
// as the paper quotes them (9KB / 17.25KB / 74.18KB).
type MANA struct {
	Base
	issuer Issuer

	tags    *lru.Sets    // keyed by trigger line
	regions []manaRegion // parallel to tags' slots

	// Lookahead is how many chained regions are prefetched ahead.
	Lookahead int

	curTrigger uint64
	haveRegion bool

	// walk dedupes lines within one chain walk (see OnAccess). It
	// holds at most Lookahead*(regionSpan+1) entries, so a linear scan
	// beats a map on every region boundary.
	walk []uint64
}

type manaRegion struct {
	footprint uint8
	next      uint64
	hasNext   bool
}

// regionSpan is how many lines after the trigger the footprint covers.
const regionSpan = 8

// NewMANA builds a MANA table with the given entry count; storageKB is
// the paper-quoted budget for the configuration.
func NewMANA(issuer Issuer, name string, entriesN int, storageKB float64, lookahead int) *MANA {
	tags := lru.New(entriesN/4, 4)
	return &MANA{
		Base:      Base{PfName: name, Bits: uint64(storageKB * 1024 * 8)},
		issuer:    issuer,
		tags:      tags,
		regions:   make([]manaRegion, tags.Len()),
		Lookahead: lookahead,
	}
}

func (p *MANA) lookup(line uint64) *manaRegion {
	if i := p.tags.Lookup(line^line>>13, line); i >= 0 {
		return &p.regions[i]
	}
	return nil
}

func (p *MANA) ensure(line uint64) *manaRegion {
	i, fresh, _ := p.tags.Ensure(line^line>>13, line)
	if fresh {
		p.regions[i] = manaRegion{}
	}
	return &p.regions[i]
}

// OnAccess implements Prefetcher.
func (p *MANA) OnAccess(ev cache.AccessEvent) {
	line := ev.LineAddr
	if p.haveRegion && line > p.curTrigger && line-p.curTrigger <= regionSpan {
		// Inside the current region: record the footprint bit.
		if e := p.lookup(p.curTrigger); e != nil {
			e.footprint |= 1 << (line - p.curTrigger - 1)
		}
		return
	}

	// Region boundary: chain the old region to the new trigger, then
	// walk the chain ahead issuing prefetches.
	if p.haveRegion {
		e := p.ensure(p.curTrigger)
		e.next = line
		e.hasNext = true
	}
	p.curTrigger = line
	p.haveRegion = true
	p.ensure(line)

	// Walk the chain. Successor pointers can form short cycles
	// (A→B→A), so dedupe lines within the walk — the PQ would reject
	// the repeats anyway, this just skips the wasted probes.
	p.walk = p.walk[:0]
	issue := func(l uint64) {
		for _, w := range p.walk {
			if w == l {
				return
			}
		}
		p.walk = append(p.walk, l)
		p.issuer.Prefetch(ev.Cycle, l, 0)
	}
	t := line
	for depth := 0; depth < p.Lookahead; depth++ {
		e := p.lookup(t)
		if e == nil {
			break
		}
		if depth > 0 {
			issue(t)
		}
		for i := uint64(0); i < regionSpan; i++ {
			if e.footprint&(1<<i) != 0 {
				issue(t + i + 1)
			}
		}
		if !e.hasNext {
			break
		}
		t = e.next
	}
}

func init() {
	for _, c := range []struct {
		name      string
		entries   int
		storageKB float64
	}{
		{"mana-2k", 2048, 9},
		{"mana-4k", 4096, 17.25},
		{"mana-8k", 8192, 74.18},
	} {
		c := c
		Register(c.name, func(is Issuer) Prefetcher {
			return NewMANA(is, c.name, c.entries, c.storageKB, 4)
		})
	}
}
