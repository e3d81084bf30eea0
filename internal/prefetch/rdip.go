package prefetch

import (
	"entangling/internal/cache"
	"entangling/internal/trace"
)

// RDIP (Kolli et al. [29], §IV-B) is the return-address-stack-directed
// instruction prefetcher: the RAS content is hashed into a signature
// that captures the call context; a miss table maps each signature to
// the L1I misses observed under it (trigger lines, each with an 8-bit
// footprint of neighbouring lines). Every call and return recomputes
// the signature and prefetches that context's misses. The miss table
// is D-JOLT's sigTable with a single range.
//
// Configuration as evaluated in the paper: a 4K-entry miss table with
// 3 triggers and 8-bit footprints, 63KB total (the shared table keeps
// six triggers per entry, as D-JOLT's does).
type RDIP struct {
	Base
	issuer Issuer
	table  *sigTable

	// ras is the prefetcher's own shadow return-address stack.
	ras []uint64
	sig uint64
}

// rdipSigDepth is how many RAS entries form the signature.
const rdipSigDepth = 2

// NewRDIP returns the paper's RDIP configuration (4K entries, 63KB).
func NewRDIP(issuer Issuer) *RDIP {
	return &RDIP{
		Base:   Base{PfName: "rdip", Bits: uint64(63 * 1024 * 8)},
		issuer: issuer,
		table:  newSigTable(4096, 0, 32), // depth unused: computeSig hashes the RAS
	}
}

func (p *RDIP) computeSig() uint64 {
	var sig uint64
	n := len(p.ras)
	for i := 0; i < rdipSigDepth && i < n; i++ {
		v := p.ras[n-1-i]
		sig ^= v << (uint(i) * 7)
	}
	sig *= 0x9E3779B97F4A7C15
	return sig
}

// OnBranch implements Prefetcher: calls and returns move the signature
// and trigger the context's prefetches.
func (p *RDIP) OnBranch(ev BranchEvent) {
	switch {
	case ev.Type.IsCall() && ev.Taken:
		if len(p.ras) < 64 {
			p.ras = append(p.ras, ev.PC+4)
		}
	case ev.Type == trace.Return:
		if len(p.ras) > 0 {
			p.ras = p.ras[:len(p.ras)-1]
		}
	default:
		return
	}
	p.sig = p.computeSig()
	p.table.prefetch(p.issuer, ev.Cycle, p.sig, nil)
}

// OnAccess implements Prefetcher: misses train the current signature's
// entry.
func (p *RDIP) OnAccess(ev cache.AccessEvent) {
	if !ev.Hit {
		p.table.train(p.sig, ev.LineAddr)
	}
}

func init() {
	Register("rdip", func(is Issuer) Prefetcher { return NewRDIP(is) })
}
