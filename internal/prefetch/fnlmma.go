package prefetch

import (
	"entangling/internal/cache"
	"entangling/internal/lru"
)

// FNLMMA (Seznec [44], §IV-B) combines the Footprint Next Line
// prefetcher — an enhanced next-line that first estimates whether a
// line is *worth* prefetching — with the Multiple Miss Ahead
// prefetcher, which predicts the Nth next L1I miss from the current
// one and prefetches it (plus its worthiness-filtered neighbours),
// covering the distances next-line cannot.
//
// Configuration as evaluated: 8K-entry miss table, 97KB total.
type FNLMMA struct {
	Base
	issuer Issuer

	// worth holds 2-bit worthiness counters indexed by hashed line.
	worth []uint8

	// missTags and missNext map a miss line to the miss observed
	// Distance misses later.
	missTags *lru.Sets
	missNext []uint64 // parallel to missTags' slots

	// ring holds the last Distance miss lines.
	ring []uint64
	pos  int
	full bool

	// Distance is the MMA look-ahead in misses.
	Distance int

	prevLine uint64
	haveLine bool
}

// fnlWorthBits sizes the worthiness table (16K 2-bit counters).
const fnlWorthBits = 14

// NewFNLMMA returns the paper's FNL+MMA configuration (97KB).
func NewFNLMMA(issuer Issuer) *FNLMMA {
	tags := lru.New(8192/4, 4)
	return &FNLMMA{
		Base:     Base{PfName: "fnl+mma", Bits: uint64(97 * 1024 * 8)},
		issuer:   issuer,
		worth:    make([]uint8, 1<<fnlWorthBits),
		missTags: tags,
		missNext: make([]uint64, tags.Len()),
		ring:     make([]uint64, 4),
		Distance: 4,
	}
}

func worthIndex(line uint64) uint64 {
	h := line * 0x9E3779B97F4A7C15
	return h >> (64 - fnlWorthBits)
}

// missHash picks line's set in the miss-ahead table.
func missHash(line uint64) uint64 { return line ^ line>>11 }

// OnAccess implements Prefetcher.
func (p *FNLMMA) OnAccess(ev cache.AccessEvent) {
	line := ev.LineAddr

	// FNL training: a line following its predecessor sequentially is
	// worth prefetching.
	if p.haveLine && line > p.prevLine && line-p.prevLine <= 2 {
		if c := &p.worth[worthIndex(line)]; *c < 3 {
			*c++
		}
	}
	p.prevLine, p.haveLine = line, true

	// FNL prefetch: next lines that look worthwhile.
	for i := uint64(1); i <= 3; i++ {
		if p.worth[worthIndex(line+i)] >= 2 {
			p.issuer.Prefetch(ev.Cycle, line+i, 0)
		}
	}

	if ev.Hit {
		return
	}

	// MMA: train the miss Distance back with this miss, then predict
	// forward from the current miss.
	if p.full {
		prev := p.ring[p.pos]
		slot, _, _ := p.missTags.Ensure(missHash(prev), prev)
		p.missNext[slot] = line
	}
	p.ring[p.pos] = line
	p.pos = (p.pos + 1) % p.Distance
	if p.pos == 0 {
		p.full = true
	}

	// Chase up to two hops of miss-ahead predictions, each with its
	// worthiness-filtered follower.
	t := line
	for hop := 0; hop < 2; hop++ {
		slot := p.missTags.Lookup(missHash(t), t)
		if slot < 0 {
			break
		}
		next := p.missNext[slot]
		p.issuer.Prefetch(ev.Cycle, next, 0)
		if p.worth[worthIndex(next+1)] >= 2 {
			p.issuer.Prefetch(ev.Cycle, next+1, 0)
		}
		t = next
	}
}

// OnEvict implements Prefetcher: unused prefetches unlearn worthiness.
func (p *FNLMMA) OnEvict(ev cache.EvictEvent) {
	if ev.Prefetched && !ev.Accessed {
		if c := &p.worth[worthIndex(ev.LineAddr)]; *c > 0 {
			*c--
		}
	}
}

func init() {
	Register("fnl+mma", func(is Issuer) Prefetcher { return NewFNLMMA(is) })
}
