package cpu

// Unit tests for individual pipeline mechanisms using hand-built
// instruction streams (no synthetic workload generator involved).

import (
	"testing"

	"entangling/internal/trace"
)

// loopSource yields a tight loop: n sequential 4-byte instructions
// starting at base, ending with a taken jump back to base.
func loopSource(base uint64, n int, repeats int) *trace.SliceSource {
	var instrs []trace.Instruction
	for r := 0; r < repeats; r++ {
		pc := base
		for i := 0; i < n-1; i++ {
			instrs = append(instrs, trace.Instruction{PC: pc, Size: 4})
			pc += 4
		}
		instrs = append(instrs, trace.Instruction{
			PC: pc, Size: 4, Branch: trace.DirectJump, Taken: true, Target: base,
		})
	}
	return &trace.SliceSource{Instrs: instrs}
}

func TestHotLoopIPCHigh(t *testing.T) {
	// A 30-instruction loop living in two cache lines: after warmup
	// everything hits and the jump is BTB-resident, so the machine
	// should sustain several instructions per cycle.
	src := loopSource(0x1000, 30, 2000)
	m := New(DefaultConfig())
	r := m.RunWindows(src, 10_000, 40_000)
	if r.IPC < 3 {
		t.Errorf("hot loop IPC = %.2f, want > 3", r.IPC)
	}
	if ratio := r.L1IHitRate(); ratio < 0.999 {
		t.Errorf("hot loop hit rate %.4f", ratio)
	}
}

func TestColdSequentialStreamBound(t *testing.T) {
	// A long never-repeating sequential stream: every 16th instruction
	// starts a new line that misses. IPC must be far below the hot-loop
	// case and every line should miss exactly once.
	var instrs []trace.Instruction
	pc := uint64(0x40_0000)
	for i := 0; i < 60_000; i++ {
		instrs = append(instrs, trace.Instruction{PC: pc, Size: 4})
		pc += 4
	}
	m := New(DefaultConfig())
	r := m.RunWindows(&trace.SliceSource{Instrs: instrs}, 0, uint64(len(instrs)))
	if r.L1I.Misses < uint64(len(instrs)/16-10) {
		t.Errorf("cold stream misses = %d, want ~%d", r.L1I.Misses, len(instrs)/16)
	}
	hot := New(DefaultConfig()).RunWindows(loopSource(0x1000, 30, 5000), 10_000, 40_000)
	if r.IPC >= hot.IPC {
		t.Errorf("cold stream IPC %.2f not below hot loop %.2f", r.IPC, hot.IPC)
	}
}

func TestFTQDepthHidesMissLatency(t *testing.T) {
	// The decoupled front-end's run-ahead (fetch-directed prefetching)
	// overlaps L1I misses. With FTQDepth=1 the lookups serialize, so
	// the same cold stream must take longer.
	mkStream := func() trace.Source {
		var instrs []trace.Instruction
		pc := uint64(0x40_0000)
		for i := 0; i < 30_000; i++ {
			instrs = append(instrs, trace.Instruction{PC: pc, Size: 4})
			pc += 4
		}
		return &trace.SliceSource{Instrs: instrs}
	}
	deep := DefaultConfig()
	shallow := DefaultConfig()
	shallow.FTQDepth = 1
	rDeep := New(deep).RunWindows(mkStream(), 0, 30_000)
	rShallow := New(shallow).RunWindows(mkStream(), 0, 30_000)
	if rDeep.Cycles >= rShallow.Cycles {
		t.Errorf("deep FTQ (%d cycles) should beat shallow FTQ (%d cycles)",
			rDeep.Cycles, rShallow.Cycles)
	}
}

func TestROBBoundsMemoryParallelism(t *testing.T) {
	// Independent long-latency loads: a larger ROB overlaps more of
	// them. Loads walk a huge region so each misses to DRAM.
	mkStream := func() trace.Source {
		var instrs []trace.Instruction
		pc := uint64(0x1000)
		data := uint64(0x10_0000_0000)
		for i := 0; i < 4000; i++ {
			in := trace.Instruction{PC: pc, Size: 4, IsLoad: true, DataAddr: data}
			instrs = append(instrs, in)
			pc += 4
			if pc%64 == 60 {
				// Stay within two cache lines of code via a loop jump.
				instrs[len(instrs)-1].Branch = trace.DirectJump
				instrs[len(instrs)-1].Taken = true
				instrs[len(instrs)-1].Target = 0x1000
				instrs[len(instrs)-1].IsLoad = false
				pc = 0x1000
			}
			data += 1 << 20 // a new DRAM row every load
		}
		return &trace.SliceSource{Instrs: instrs}
	}
	small := DefaultConfig()
	small.ROBSize = 16
	big := DefaultConfig()
	big.ROBSize = 512
	rSmall := New(small).RunWindows(mkStream(), 0, 4000)
	rBig := New(big).RunWindows(mkStream(), 0, 4000)
	if rBig.Cycles >= rSmall.Cycles {
		t.Errorf("big ROB (%d cycles) should beat small ROB (%d cycles)",
			rBig.Cycles, rSmall.Cycles)
	}
}

func TestMispredictPenaltyCosts(t *testing.T) {
	// Identical loops, one with a perfectly biased branch, one with an
	// alternating data-dependent branch the bimodal/gshare combo can
	// learn, one with a pseudo-random branch it cannot. The random one
	// must be slowest.
	mkLoop := func(pattern func(i int) bool) trace.Source {
		var instrs []trace.Instruction
		for i := 0; i < 20_000; i++ {
			// Body.
			for k := 0; k < 6; k++ {
				instrs = append(instrs, trace.Instruction{PC: 0x1000 + uint64(k)*4, Size: 4})
			}
			// Conditional branch whose outcome follows the pattern.
			instrs = append(instrs, trace.Instruction{
				PC: 0x1000 + 24, Size: 4, Branch: trace.CondBranch,
				Taken: pattern(i), Target: 0x1040,
			})
			if pattern(i) {
				// Taken path: one instruction then jump back.
				instrs = append(instrs, trace.Instruction{PC: 0x1040, Size: 4,
					Branch: trace.DirectJump, Taken: true, Target: 0x1000})
			} else {
				instrs = append(instrs, trace.Instruction{PC: 0x1000 + 28, Size: 4,
					Branch: trace.DirectJump, Taken: true, Target: 0x1000})
			}
		}
		return &trace.SliceSource{Instrs: instrs}
	}
	run := func(p func(i int) bool) Results {
		return New(DefaultConfig()).RunWindows(mkLoop(p), 0, 120_000)
	}
	biased := run(func(i int) bool { return true })
	lcg := 12345
	random := run(func(i int) bool {
		lcg = lcg*1103515245 + 12345
		return lcg>>16&1 == 1
	})
	if biased.CondAccuracy < 0.99 {
		t.Errorf("biased branch accuracy %.3f", biased.CondAccuracy)
	}
	if random.CondAccuracy > 0.85 {
		t.Errorf("random branch accuracy suspiciously high: %.3f", random.CondAccuracy)
	}
	if biased.Cycles >= random.Cycles {
		t.Errorf("mispredictions cost nothing: biased %d vs random %d cycles",
			biased.Cycles, random.Cycles)
	}
}

func TestRunWindowsEqualsManualDelta(t *testing.T) {
	// RunWindows(w, m) must equal the delta between full runs of w and
	// w+m instructions. A machine is single-use (see
	// TestMachineSingleUse), so each run gets its own machine over the
	// same deterministic stream; the two prefixes replay identically,
	// making the delta exact.
	p := loopSource(0x1000, 30, 10_000)
	a := New(DefaultConfig())
	ra := a.RunWindows(p, 50_000, 50_000)

	r1 := New(DefaultConfig()).RunWindows(loopSource(0x1000, 30, 10_000), 0, 50_000)
	r2 := New(DefaultConfig()).RunWindows(loopSource(0x1000, 30, 10_000), 0, 100_000)
	if ra.Instructions != r2.Instructions-r1.Instructions {
		t.Errorf("instruction deltas differ: %d vs %d",
			ra.Instructions, r2.Instructions-r1.Instructions)
	}
	delta := r2.Cycles - r1.Cycles
	if delta != ra.Cycles {
		t.Errorf("cycle deltas diverge: %d vs %d", ra.Cycles, delta)
	}
	if ra.L1I.Accesses != r2.L1I.Accesses-r1.L1I.Accesses {
		t.Error("L1I access deltas differ")
	}
}

func TestEmptySource(t *testing.T) {
	m := New(DefaultConfig())
	r := m.RunWindows(&trace.SliceSource{}, 0, 1000)
	if r.Instructions != 0 || r.Cycles != 0 || r.IPC != 0 {
		t.Errorf("empty run: %+v", r)
	}
}

func TestBTBMissRedirectCheaperThanMispredict(t *testing.T) {
	// Stream A: taken direct jumps to round-robin targets — after the
	// BTB warms these are all hits, but we measure the COLD pass where
	// every jump is a BTB miss (decode-stage redirect).
	// Stream B: same structure, but conditional branches whose outcome
	// flips pseudo-randomly — execute-stage mispredicts.
	// With identical block structure, execute-detected redirects must
	// cost at least as much as decode-detected ones.
	mkJumps := func() trace.Source {
		var instrs []trace.Instruction
		targets := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
		for i := 0; i < 8000; i++ {
			base := targets[i%4]
			for k := uint64(0); k < 3; k++ {
				instrs = append(instrs, trace.Instruction{PC: base + k*4, Size: 4})
			}
			instrs = append(instrs, trace.Instruction{PC: base + 12, Size: 4,
				Branch: trace.DirectJump, Taken: true, Target: targets[(i+1)%4]})
		}
		return &trace.SliceSource{Instrs: instrs}
	}
	mkRandomCond := func() trace.Source {
		var instrs []trace.Instruction
		targets := []uint64{0x1000, 0x2000}
		lcg := 99
		for i := 0; i < 8000; i++ {
			lcg = lcg*1103515245 + 12345
			taken := lcg>>16&1 == 1
			base := targets[i%2]
			for k := uint64(0); k < 3; k++ {
				instrs = append(instrs, trace.Instruction{PC: base + k*4, Size: 4})
			}
			br := trace.Instruction{PC: base + 12, Size: 4, Branch: trace.CondBranch,
				Taken: taken, Target: targets[(i+1)%2]}
			instrs = append(instrs, br)
			if !taken {
				// Fall-through path jumps to keep the loop structure.
				instrs = append(instrs, trace.Instruction{PC: base + 16, Size: 4,
					Branch: trace.DirectJump, Taken: true, Target: targets[(i+1)%2]})
			}
		}
		return &trace.SliceSource{Instrs: instrs}
	}
	jumps := New(DefaultConfig()).RunWindows(mkJumps(), 0, 32_000)
	conds := New(DefaultConfig()).RunWindows(mkRandomCond(), 0, 32_000)
	// Both streams redirect heavily; jumps only via BTB misses (and
	// only until the BTB warms), conds via execute-stage mispredicts.
	if jumps.Redirects == 0 {
		t.Fatal("jump stream produced no redirects")
	}
	if conds.Redirects == 0 {
		t.Fatal("cond stream produced no redirects")
	}
	if jumps.IPC <= conds.IPC {
		t.Errorf("decode-redirect stream IPC %.3f should exceed execute-redirect stream %.3f",
			jumps.IPC, conds.IPC)
	}
}

func TestStoreTrafficCounted(t *testing.T) {
	var instrs []trace.Instruction
	for i := 0; i < 1000; i++ {
		instrs = append(instrs, trace.Instruction{
			PC: 0x1000 + uint64(i%8)*4, Size: 4, IsStore: true,
			DataAddr: 0x9000_0000 + uint64(i)*64,
		})
	}
	m := New(DefaultConfig())
	r := m.RunWindows(&trace.SliceSource{Instrs: instrs}, 0, 1000)
	if r.L1D.Accesses < 900 {
		t.Errorf("stores not reaching L1D: %d accesses", r.L1D.Accesses)
	}
}
