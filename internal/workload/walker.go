package workload

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"entangling/internal/trace"
)

// Walker interprets a Program's control-flow graph and yields the
// dynamic instruction stream. It implements trace.Source.
//
// The walk is deterministic: two walkers built from the same Program
// (hence the same Params.Seed) produce identical streams, which is what
// makes per-workload comparisons between prefetchers meaningful.
type Walker struct {
	prog *Program
	rng  pcg
	data *dataGen

	// noise, load and mem are the thresholds of PathNoise, LoadFrac
	// and LoadFrac+StoreFrac (see threshold).
	noise, load, mem uint64

	fn, blk, idx int
	stack        []frame
	count        uint64

	// curSeed is the current frame's deterministic decision stream: a
	// xorshift64 state derived from (callee, flavor) at dispatch and
	// from (parent seed, call site) for nested calls. Draws from it
	// make a request subtree replay identically across visits —
	// the long-range determinism real instruction streams have.
	curSeed uint64

	// perm maps power-law rank to function index for indirect calls;
	// reshuffled every PhaseLen instructions when phases are enabled.
	// permScratch is the rotation buffer reused across reshuffles.
	perm        []int
	permScratch []int
	nextPhase   uint64

	// JIT layout churn (CodePhaseLen > 0): fnOff[fi] displaces function
	// fi from its static address; relocArena is the next free address
	// relocated code is placed at, growing monotonically so a moved
	// function never lands on addresses any earlier phase used.
	fnOff      []uint64
	relocArena uint64
	nextReloc  uint64

	// Interrupt excursions (InterruptEvery > 0): nextIntr is the count
	// at which the next handler fires; intrAt is the stack depth of the
	// active excursion (0 = none), preventing nested interrupts.
	nextIntr uint64
	intrAt   int

	// Serverless cold starts (ColdEvery > 0): every restart shifts all
	// code addresses by epochStride, so the new epoch shares no cache
	// lines or predictor indices with any previous one.
	epochBase   uint64
	epochStride uint64
	nextCold    uint64

	// nextEvent is the earliest count at which one of the events above
	// is due, so Next checks one counter instead of four. It starts at
	// 0, which makes the first Next compute it.
	nextEvent uint64
}

type frame struct {
	fn, blk, idx int
	seed         uint64
}

// NewWalker creates a walker at the program entry.
func NewWalker(prog *Program) *Walker {
	w := &Walker{
		prog:  prog,
		data:  newDataGen(prog.Params),
		stack: make([]frame, 0, prog.Params.MaxCallDepth+1),
		perm:  make([]int, len(prog.Funcs)),
	}
	w.rng.Seed(prog.Params.Seed, 0x57A1C)
	p := &prog.Params
	w.noise = threshold(p.PathNoise)
	w.load = threshold(p.LoadFrac)
	w.mem = threshold(p.LoadFrac + p.StoreFrac)
	for i := range w.perm {
		w.perm[i] = i
	}
	if prog.Params.PhaseLen > 0 {
		w.nextPhase = prog.Params.PhaseLen
	}
	if prog.Params.CodePhaseLen > 0 {
		w.fnOff = make([]uint64, len(prog.Funcs))
		// The relocation arena sits far above the static code region so
		// no phase can alias addresses still reachable through it.
		w.relocArena = CodeBase + 1<<30
		w.nextReloc = prog.Params.CodePhaseLen
	}
	if prog.Params.InterruptEvery > 0 {
		w.nextIntr = prog.Params.InterruptEvery
	}
	if prog.Params.ColdEvery > 0 {
		// Epochs are spaced a 4 MiB-aligned stride past the code
		// footprint, so consecutive mappings are disjoint at every
		// cache and predictor granularity the model indexes by.
		w.epochStride = (prog.FootprintBytes>>22 + 1) << 22
		w.nextCold = prog.Params.ColdEvery
	}
	w.curSeed = mix64(prog.Params.Seed ^ 0xD15EA5E)
	return w
}

// addr maps a static address of function fn to its current dynamic
// address, applying the function's JIT relocation offset and the cold
// epoch base. With both features off it is the identity.
func (w *Walker) addr(fn int, a uint64) uint64 {
	if w.fnOff != nil {
		a += w.fnOff[fn]
	}
	return a + w.epochBase
}

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Every walk decision is defined as a uniform draw u in [0,1) compared
// with a fixed fraction x: u < x. Each draw is u = k/2^53 for a 53-bit
// integer k, so the walker keeps k and compares it with threshold(x)
// instead, which decides exactly as the float compare would.

// threshold returns the t for which k < t holds exactly when
// float64(k)/2^53 < x, for every integer k in [0, 2^53): ceil(x·2^53),
// where scaling by a power of two is exact. x <= 0 and NaN give 0 (no
// k passes) and x >= 1 gives 2^53 (every k does); the clamp also keeps
// a negative x from Go's implementation-defined conversion to uint64.
func threshold(x float64) uint64 {
	switch {
	case !(x > 0):
		return 0
	case x >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(x * (1 << 53)))
}

// decide draws the next control decision as a 53-bit integer, to be
// compared with a threshold. Inside the driver (the request mix) and
// for a small PathNoise fraction of decisions it is truly random;
// otherwise it comes from the frame's deterministic stream.
func (w *Walker) decide() uint64 {
	if w.fn == 0 || w.rng.Uint64()&low53 < w.noise {
		return w.rng.Uint64() & low53
	}
	w.curSeed ^= w.curSeed << 13
	w.curSeed ^= w.curSeed >> 7
	w.curSeed ^= w.curSeed << 17
	return w.curSeed >> 11
}

// Count returns the number of instructions emitted so far.
func (w *Walker) Count() uint64 { return w.count }

// Next implements trace.Source. The stream is unbounded: a reader
// takes the records it needs and stops, as pack and cpu's RunWindows
// do.
func (w *Walker) Next(in *trace.Instruction) bool {
	if w.count >= w.nextEvent && w.runEvents(in) {
		return true
	}
	f := &w.prog.Funcs[w.fn]
	b := &f.Blocks[w.blk]
	pc := w.addr(w.fn, b.Addr+uint64(w.idx)*InstrSize)

	*in = trace.Instruction{PC: pc, Size: InstrSize}
	w.count++

	if w.idx < b.NInstr-1 {
		// Body instruction: maybe a memory op, then advance.
		w.decorateMemOp(in)
		w.idx++
		return true
	}

	// Terminator instruction.
	switch b.Term {
	case TermFallthrough:
		w.decorateMemOp(in)
		w.advanceBlock(w.blk + 1)

	case TermCond:
		in.Branch = trace.CondBranch
		target := &f.Blocks[b.TargetBlock]
		in.Target = w.addr(w.fn, target.Addr)
		if w.decide() < b.taken {
			in.Taken = true
			w.setBlock(w.fn, b.TargetBlock)
		} else {
			w.advanceBlock(w.blk + 1)
		}

	case TermJump:
		in.Branch = trace.DirectJump
		in.Taken = true
		in.Target = w.addr(w.fn, f.Blocks[b.TargetBlock].Addr)
		w.setBlock(w.fn, b.TargetBlock)

	case TermCall:
		w.emitCall(in, b.Callee, trace.DirectCall)

	case TermIndirectCall:
		// Dynamic target selection through the phase permutation: the
		// same call site reaches different callees over time, which is
		// what defeats purely static BTB-directed schemes. Selection is
		// Zipf-like over the target table (hot head, long tail).
		skew := w.prog.Params.DispatchSkew
		if skew < 1 {
			skew = 1
		}
		u := float64(w.decide()) / (1 << 53)
		idx := int(math.Pow(u, skew) * float64(len(b.ITargets)))
		if idx >= len(b.ITargets) {
			idx = len(b.ITargets) - 1
		}
		callee := w.perm[b.ITargets[idx]]
		w.emitCall(in, callee, trace.IndirectCall)

	case TermReturn:
		in.Branch = trace.Return
		in.Taken = true
		if len(w.stack) > 0 {
			fr := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			w.fn, w.blk, w.idx = fr.fn, fr.blk, fr.idx
			w.curSeed = fr.seed
			if w.intrAt > len(w.stack) {
				// The active interrupt excursion just returned; the
				// interrupted instruction re-executes next.
				w.intrAt = 0
			}
			in.Target = w.currentPC()
		} else {
			// Stack empty: restart the driver, as a top-level event
			// loop would.
			w.setBlock(0, 0)
			in.Target = w.currentPC()
		}
	}
	return true
}

// runEvents runs the scheduled events due at the current count, in a
// fixed order, then moves nextEvent to the earliest one still pending.
// It reports whether an interrupt took the record in.
func (w *Walker) runEvents(in *trace.Instruction) bool {
	p := &w.prog.Params
	if w.nextPhase != 0 && w.count >= w.nextPhase {
		w.reshufflePhase()
		w.nextPhase += p.PhaseLen
	}
	if w.nextCold != 0 && w.count >= w.nextCold {
		w.coldRestart()
		w.nextCold += p.ColdEvery
	}
	if w.nextReloc != 0 && w.count >= w.nextReloc {
		w.relocate()
		w.nextReloc += p.CodePhaseLen
	}
	fired := false
	if w.nextIntr != 0 && w.count >= w.nextIntr {
		if w.intrAt == 0 && len(w.stack) < p.MaxCallDepth {
			w.emitInterrupt(in)
			fired = true
		} else {
			// Inside a handler or at the depth cap: retry shortly after.
			w.nextIntr = w.count + 64
		}
	}
	w.nextEvent = math.MaxUint64
	for _, at := range [...]uint64{w.nextPhase, w.nextCold, w.nextReloc, w.nextIntr} {
		if at != 0 && at < w.nextEvent {
			w.nextEvent = at
		}
	}
	return fired
}

// emitCall emits a call terminator and transfers control, respecting
// the depth cap (at the cap the call is emitted as a plain instruction,
// i.e. the callee is treated as inlined-away/predicated-off).
func (w *Walker) emitCall(in *trace.Instruction, callee int, kind trace.BranchType) {
	if len(w.stack) >= w.prog.Params.MaxCallDepth {
		w.advanceBlock(w.blk + 1)
		return
	}
	in.Branch = kind
	in.Taken = true
	in.Target = w.addr(callee, w.prog.Funcs[callee].Entry())
	// Return site: the block after the call, or loop the function if
	// the call ends it.
	retBlk, retIdx := w.blk+1, 0
	if retBlk >= len(w.prog.Funcs[w.fn].Blocks) {
		retBlk = len(w.prog.Funcs[w.fn].Blocks) - 1
		retIdx = w.prog.Funcs[w.fn].Blocks[retBlk].NInstr - 1
	}
	w.stack = append(w.stack, frame{w.fn, retBlk, retIdx, w.curSeed})

	// The callee's decision stream: a dispatched request picks one of
	// PathFlavors deterministic variants; a nested call inherits
	// determinism from its parent and call site.
	if w.fn == 0 {
		flavor := uint64(w.rng.IntN(w.prog.Params.PathFlavors))
		w.curSeed = mix64(uint64(callee)<<8 ^ flavor ^ w.prog.Params.Seed<<1)
	} else {
		w.curSeed = mix64(w.curSeed ^ uint64(w.blk)<<32 ^ uint64(callee))
	}
	w.setBlock(callee, 0)
}

func (w *Walker) currentPC() uint64 {
	b := &w.prog.Funcs[w.fn].Blocks[w.blk]
	return w.addr(w.fn, b.Addr+uint64(w.idx)*InstrSize)
}

// emitInterrupt fires an asynchronous excursion: the current
// instruction is replaced by an indirect call into a handler function,
// and the saved frame re-executes the interrupted instruction when the
// handler returns — the same PC fetched twice, with an arbitrary
// handler body in between.
func (w *Walker) emitInterrupt(in *trace.Instruction) {
	p := &w.prog.Params
	handler := len(w.prog.Funcs) - p.InterruptFns + w.rng.IntN(p.InterruptFns)
	*in = trace.Instruction{
		PC:     w.currentPC(),
		Size:   InstrSize,
		Branch: trace.IndirectCall,
		Taken:  true,
		Target: w.addr(handler, w.prog.Funcs[handler].Entry()),
	}
	w.count++
	w.stack = append(w.stack, frame{w.fn, w.blk, w.idx, w.curSeed})
	w.intrAt = len(w.stack)
	// Handlers run deterministically per (handler, epoch-ish) identity:
	// the same handler does the same work every time it fires.
	w.curSeed = mix64(uint64(handler)<<8 ^ p.Seed ^ 0xA5A5_1234)
	w.setBlock(handler, 0)
	w.nextIntr = w.count + p.InterruptEvery/2 + uint64(w.rng.IntN(int(p.InterruptEvery)))
}

// coldRestart begins a fresh serverless epoch: the call stack clears,
// the walk restarts at the driver entry, and every code address moves
// to a disjoint mapping, so the front end warms from zero.
func (w *Walker) coldRestart() {
	w.stack = w.stack[:0]
	w.intrAt = 0
	w.epochBase += w.epochStride
	w.curSeed = mix64(w.prog.Params.Seed ^ w.epochBase)
	w.setBlock(0, 0)
}

// relocate starts a JIT code phase: each non-driver function moves
// with probability CodeRelocFrac to a fresh arena address. Entangled
// pairs, BTB entries and cache lines learned at the old addresses are
// dead weight afterwards. Functions live on the call stack stay put —
// a JIT cannot move a frame that is executing — which also keeps the
// emitted PC stream continuous across a relocation phase.
func (w *Walker) relocate() {
	move := threshold(w.prog.Params.CodeRelocFrac)
	live := map[int]bool{w.fn: true}
	for _, fr := range w.stack {
		live[fr.fn] = true
	}
	for fi := 1; fi < len(w.prog.Funcs); fi++ {
		if w.rng.Uint64()&low53 >= move || live[fi] {
			continue
		}
		f := &w.prog.Funcs[fi]
		last := &f.Blocks[len(f.Blocks)-1]
		span := last.Addr + uint64(last.NInstr)*InstrSize - f.Entry()
		w.fnOff[fi] = w.relocArena - f.Entry()
		w.relocArena = (w.relocArena + span + 63) &^ 63
	}
}

// advanceBlock moves to block bi of the current function, returning
// from the function when bi runs off the end.
func (w *Walker) advanceBlock(bi int) {
	if bi >= len(w.prog.Funcs[w.fn].Blocks) {
		bi = len(w.prog.Funcs[w.fn].Blocks) - 1
	}
	w.setBlock(w.fn, bi)
}

func (w *Walker) setBlock(fn, blk int) {
	w.fn, w.blk, w.idx = fn, blk, 0
}

func (w *Walker) decorateMemOp(in *trace.Instruction) {
	k := w.decide()
	switch {
	case k < w.load:
		in.IsLoad = true
		in.DataAddr = w.data.next(&w.rng, len(w.stack))
	case k < w.mem:
		in.IsStore = true
		in.DataAddr = w.data.next(&w.rng, len(w.stack))
	}
}

// reshufflePhase rotates the indirect-call permutation, shifting the
// hot set of functions (cloud workloads' phase behaviour).
func (w *Walker) reshufflePhase() {
	n := len(w.perm)
	// Rotate by a random amount and swap a random sample; keeps most
	// structure while moving the working set.
	rot := 1 + w.rng.IntN(n-1)
	if w.permScratch == nil {
		w.permScratch = make([]int, n)
	}
	rotated := w.permScratch
	for i := range w.perm {
		rotated[i] = w.perm[(i+rot)%n]
	}
	copy(w.perm, rotated)
	for i := 0; i < n/8; i++ {
		a, b := w.rng.IntN(n), w.rng.IntN(n)
		w.perm[a], w.perm[b] = w.perm[b], w.perm[a]
	}
}

// dataGen synthesizes data addresses: mostly stack-frame reuse (fast
// L1D hits), a sequential heap stream, and occasional random accesses
// across the data footprint. The data side only needs to load the
// backend realistically; no data prefetcher is modelled (the paper
// evaluates instruction prefetching in isolation).
type dataGen struct {
	stackBase  uint64
	heapBase   uint64
	heapSize   uint64
	streamSize uint64
	streamPos  uint64
}

func newDataGen(p Params) *dataGen {
	size := p.DataFootprint
	if size < 1<<12 {
		size = 1 << 12
	}
	// The sequential stream reuses a hot window that fits in the LLC,
	// as real working sets do; only the pointer-chase slice touches the
	// whole footprint. Without this, the stream would cycle-evict the
	// code from the LLC and every instruction miss would pay a DRAM
	// round trip, which no real server workload exhibits.
	stream := size
	if stream > 1<<19 {
		stream = 1 << 19
	}
	return &dataGen{
		stackBase:  0x7fff_ffff_0000,
		heapBase:   0x0000_6000_0000,
		heapSize:   size,
		streamSize: stream,
	}
}

// stackBelow and streamBelow are the thresholds of dataGen's 0.60/0.96
// split. They are computed from the float64 fractions at run time: a
// constant 0.60·2^53 would scale the exact rational 3/5, not the
// float64 the split was defined by.
var stackBelow, streamBelow = threshold(0.60), threshold(0.96)

func (d *dataGen) next(rng *pcg, depth int) uint64 {
	k := rng.Uint64() & low53
	switch {
	case k < stackBelow:
		// Stack frame of the current depth: heavy reuse.
		frame := d.stackBase - uint64(depth)*256
		return frame - uint64(rng.IntN(240))
	case k < streamBelow:
		// Sequential heap stream over the hot window.
		d.streamPos = (d.streamPos + 8 + uint64(rng.IntN(16))) % d.streamSize
		return d.heapBase + d.streamPos
	default:
		// Occasional pointer chase over the footprint.
		return d.heapBase + uint64(rng.Uint64()%d.heapSize)&^7
	}
}

// pcg is the walker's random source: a concrete PCG whose masked
// Uint64 (see low53) and IntN derive each value exactly as
// math/rand/v2's Rand does from the same source, so the stream matches
// a rand.New(rand.NewPCG(...)) draw for draw, without an interface call
// per draw.
type pcg struct{ rand.PCG }

// low53 masks a draw to the 53-bit integer k behind a
// rand.(*Rand).Float64 draw, which is float64(k)/2^53. Call sites
// apply it to Uint64 themselves: the draw inlines there, and a method
// wrapping it would be too large to.
const low53 = 1<<53 - 1

// IntN returns a value in [0,n), as rand.(*Rand).IntN: a mask for a
// power of two, else Lemire's multiply with the same rejection rule.
func (p *pcg) IntN(n int) int {
	if n <= 0 {
		panic("workload: IntN needs n > 0")
	}
	u := uint64(n)
	if u&(u-1) == 0 {
		return int(p.Uint64() & (u - 1))
	}
	hi, lo := bits.Mul64(p.Uint64(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), u)
		}
	}
	return int(hi)
}
