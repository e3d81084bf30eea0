package energy

import (
	"testing"

	"entangling/internal/cache"
	"entangling/internal/cpu"
)

func TestComputeBreakdown(t *testing.T) {
	m := Model{
		L1I:  PerAccess{TagProbe: 1, Read: 10, Write: 100},
		L1D:  PerAccess{TagProbe: 2, Read: 20, Write: 200},
		L2:   PerAccess{TagProbe: 3, Read: 30, Write: 300},
		LLC:  PerAccess{TagProbe: 4, Read: 40, Write: 400},
		DRAM: 1000,
	}
	r := cpu.Results{
		L1I:       cache.Stats{TagProbes: 1, Reads: 1, Writes: 1},
		L1D:       cache.Stats{TagProbes: 2, Reads: 2, Writes: 2},
		L2:        cache.Stats{TagProbes: 3, Reads: 3, Writes: 3},
		LLC:       cache.Stats{TagProbes: 4, Reads: 4, Writes: 4},
		DRAMReads: 5,
	}
	b := m.Compute(&r)
	if b.L1I != 111 || b.L1D != 444 || b.L2 != 999 || b.LLC != 1776 {
		t.Errorf("breakdown: %+v", b)
	}
	// Leakage scales with cycles.
	m.L2.LeakPerCycle = 1
	r.Cycles = 100
	if b2 := m.Compute(&r); b2.L2 != 999+100 {
		t.Errorf("leakage not applied: %v", b2.L2)
	}
	m.L2.LeakPerCycle = 0
	r.Cycles = 0
	if b.DRAM != 5000 {
		t.Errorf("DRAM energy = %v", b.DRAM)
	}
	if b.Total() != 111+444+999+1776 {
		t.Errorf("Total = %v", b.Total())
	}
}

func TestDefault22nmOrdering(t *testing.T) {
	m := Default22nm()
	// Bigger arrays cost more per access; DRAM dominates everything.
	if !(m.L1I.Read < m.L2.Read && m.L2.Read < m.LLC.Read) {
		t.Error("per-access read energies not ordered by array size")
	}
	if !(m.L1I.LeakPerCycle < m.L2.LeakPerCycle && m.L2.LeakPerCycle < m.LLC.LeakPerCycle) {
		t.Error("leakage not ordered by array size")
	}
	if !(m.L1I.Write > m.L1I.Read) || !(m.LLC.Write > m.LLC.Read) {
		t.Error("writes should cost more than reads")
	}
	if m.DRAM < 10*m.LLC.Read {
		t.Error("DRAM should dominate SRAM accesses")
	}
}

func TestFasterRunLeaksLess(t *testing.T) {
	// The Table IV effect: an effective prefetcher shortens the run,
	// so the leakage-dominated L2/LLC consume less total energy even
	// with extra prefetch traffic.
	m := Default22nm()
	slow := cpu.Results{Cycles: 2_000_000,
		LLC: cache.Stats{TagProbes: 1000, Reads: 500, Writes: 500}}
	fast := cpu.Results{Cycles: 1_400_000,
		LLC: cache.Stats{TagProbes: 1500, Reads: 750, Writes: 750}}
	if m.Compute(&fast).LLC >= m.Compute(&slow).LLC {
		t.Error("shorter run with more traffic should still save LLC energy")
	}
}

func TestMorePrefetchesMoreL1IEnergy(t *testing.T) {
	// The Table IV effect: prefetching adds L1I probes/writes but
	// removes L2/LLC traffic. Model that with two synthetic runs.
	m := Default22nm()
	baseline := cpu.Results{
		L1I: cache.Stats{TagProbes: 1000, Reads: 900, Writes: 100},
		L2:  cache.Stats{TagProbes: 500, Reads: 300, Writes: 200},
	}
	withPf := cpu.Results{
		L1I: cache.Stats{TagProbes: 1600, Reads: 950, Writes: 300},
		L2:  cache.Stats{TagProbes: 300, Reads: 150, Writes: 100},
	}
	b0 := m.Compute(&baseline)
	b1 := m.Compute(&withPf)
	if b1.L1I <= b0.L1I {
		t.Error("prefetching should increase L1I energy")
	}
	if b1.L2 >= b0.L2 {
		t.Error("accurate prefetching should reduce L2 energy")
	}
}
