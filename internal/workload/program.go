package workload

import (
	"math"
	"math/rand/v2"
)

// TermKind is the static terminator class of a basic block.
type TermKind uint8

// Block terminator kinds.
const (
	TermFallthrough  TermKind = iota
	TermCond                  // conditional branch to TargetBlock
	TermJump                  // unconditional direct jump to TargetBlock
	TermCall                  // direct call to Callee, then fall through
	TermIndirectCall          // indirect call to one of ITargets
	TermReturn                // return to caller
)

// InstrSize is the fixed instruction size in bytes. The CVP traces the
// paper evaluates on come from an ARM-based (Qualcomm) core, so a fixed
// 4-byte encoding is the faithful choice.
const InstrSize = 4

// CodeBase is the virtual address where the synthetic code region
// starts.
const CodeBase = 0x0040_0000

// Block is a static basic block.
type Block struct {
	// Addr is the virtual address of the first instruction.
	Addr uint64
	// NInstr is the number of instructions including the terminator.
	NInstr int
	// Term classifies the terminator (the last instruction).
	Term TermKind
	// TargetBlock is the intra-function target block index for
	// TermCond and TermJump.
	TargetBlock int
	// TakenBias is the taken probability for TermCond.
	TakenBias float64
	// taken is threshold(TakenBias), set by BuildProgram: what the
	// walker decides a conditional on.
	taken uint64
	// Callee is the target function index for TermCall.
	Callee int
	// ITargets are the candidate function indices for TermIndirectCall.
	ITargets []int
}

// Func is a static function: a contiguous run of basic blocks.
type Func struct {
	// Blocks in layout order; Blocks[0].Addr is the entry point.
	Blocks []Block
}

// Entry returns the function entry address.
func (f *Func) Entry() uint64 { return f.Blocks[0].Addr }

// Program is the static synthetic program.
type Program struct {
	// Funcs holds every function; Funcs[0] is the driver the walk
	// starts in and restarts from when the call stack empties.
	Funcs []Func
	// Params are the parameters the program was built from.
	Params Params
	// FootprintBytes is the total code size including inter-function
	// padding.
	FootprintBytes uint64
}

// BuildProgram constructs the static program for p. Construction is a
// pure function of p (including p.Seed).
func BuildProgram(p Params) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0xC0DE))
	prog := &Program{Params: p, Funcs: make([]Func, p.Functions)}

	addr := uint64(CodeBase)
	for fi := range prog.Funcs {
		nblocks := 1 + geometric(rng, float64(p.MeanBlocks))
		if fi == 0 && nblocks < 12 {
			// The driver must be big enough to dispatch work; a
			// one-block driver would return to itself forever.
			nblocks = 12
		}
		blocks := make([]Block, nblocks)
		for bi := range blocks {
			n := 1 + geometric(rng, float64(p.MeanBlockInstrs))
			if n > 48 {
				n = 48
			}
			blocks[bi] = Block{Addr: addr, NInstr: n}
			addr += uint64(n) * InstrSize
		}
		// Inter-function padding: real linkers align and pad; this also
		// prevents every function from sharing lines with its neighbour.
		addr += uint64(rng.IntN(4)) * 16
		addr = (addr + 15) &^ 15
		prog.Funcs[fi] = Func{Blocks: blocks}
	}
	prog.FootprintBytes = addr - CodeBase

	// Assign terminators. The driver (function 0) is made call-heavy so
	// the dynamic walk traverses the program broadly, as a server
	// request-dispatch loop would.
	for fi := range prog.Funcs {
		f := &prog.Funcs[fi]
		callFrac, condFrac := p.CallFrac, p.CondFrac
		if fi == 0 {
			callFrac, condFrac = 0.55, 0.30
		}
		// loopFloor is the first block a backward branch may target:
		// normally just past the most recent call site, so loops rarely
		// re-execute calls. Unrestricted call-in-loop at every nesting
		// level would make excursion times grow exponentially with call
		// depth, freezing the walk inside one subtree.
		loopFloor := 0
		// Only the first backward branch in a function gets the full
		// trip count; the rest are short inner loops. Several long
		// overlapping loops would multiply into near-absorbing orbits
		// (escape time grows as the product of trip counts).
		longLoopUsed := false
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			if bi == len(f.Blocks)-1 {
				b.Term = TermReturn
				continue
			}
			if fi == 0 && bi%2 == 0 {
				// Driver dispatch site: an indirect call that can reach
				// DriverFanout distinct functions, like a request/event
				// dispatch loop. This sets the breadth of the
				// steady-state instruction working set.
				b.Term = TermIndirectCall
				fanout := p.DriverFanout
				if fanout > p.Functions-1 {
					fanout = p.Functions - 1
				}
				b.ITargets = make([]int, fanout)
				for i := range b.ITargets {
					// Uniform over all functions: dispatch breadth is
					// what distinguishes the categories, independent of
					// the skew of ordinary call sites.
					b.ITargets[i] = 1 + rng.IntN(p.Functions-1)
				}
				loopFloor = bi + 1
				continue
			}
			u := rng.Float64()
			switch {
			case u < condFrac:
				b.Term = TermCond
				if bi > 0 && rng.Float64() < p.LoopBackProb {
					// Backward branch: loop over the preceding region,
					// normally without re-entering call sites (a 5%
					// minority are genuine call-in-loop sites).
					floor := loopFloor
					if rng.Float64() < 0.05 {
						floor = 0
					}
					if floor > bi {
						floor = bi
					}
					b.TargetBlock = floor + rng.IntN(bi-floor+1)
					// Taken bias so the mean trip count is LoopIterMean
					// (first loop) or a short inner-loop count.
					mean := p.LoopIterMean
					if longLoopUsed && mean > 3 {
						mean = 3
					}
					longLoopUsed = true
					b.TakenBias = mean / (mean + 1)
				} else {
					// Forward branch skipping 1..3 blocks. Real branch
					// sites are mostly strongly biased (error paths,
					// guards); only a minority are data-dependent
					// coin flips — the mix a real predictor sees.
					b.TargetBlock = min(bi+1+rng.IntN(3)+1, len(f.Blocks)-1)
					switch u := rng.Float64(); {
					case u < 0.40:
						b.TakenBias = 0.03
					case u < 0.78:
						b.TakenBias = 0.97
					default:
						b.TakenBias = p.CondTakenBias
					}
				}
				b.taken = threshold(b.TakenBias)
			case u < condFrac+callFrac:
				b.Term = TermCall
				b.Callee = pickCallee(rng, p, fi)
				loopFloor = bi + 1
			case u < condFrac+callFrac+p.IndirectFrac:
				b.Term = TermIndirectCall
				n := 3 + rng.IntN(4)
				b.ITargets = make([]int, n)
				for i := range b.ITargets {
					b.ITargets[i] = pickCallee(rng, p, fi)
				}
				loopFloor = bi + 1
			case u < condFrac+callFrac+p.IndirectFrac+p.JumpFrac:
				b.Term = TermJump
				b.TargetBlock = min(bi+1+rng.IntN(3), len(f.Blocks)-1)
			default:
				b.Term = TermFallthrough
			}
		}
	}
	return prog, nil
}

// pickCallee selects a call target with a power-law (Zipf-like)
// distribution over functions: CallSkew > 1 concentrates mass on the
// low-indexed ("hot") functions, which is how desktop/crypto code
// behaves; server workloads use a flatter skew, spreading fetches over
// their huge footprint.
func pickCallee(rng *rand.Rand, p Params, self int) int {
	for {
		u := rng.Float64()
		idx := int(math.Pow(u, p.CallSkew) * float64(p.Functions))
		if idx >= p.Functions {
			idx = p.Functions - 1
		}
		if idx != self {
			return idx
		}
		// Avoid trivial self-recursion; retry. Validate requires two
		// functions, so another one exists.
	}
}

// geometric samples a geometric-ish value with the given mean (>= 0).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Inverse CDF of geometric with success prob 1/(mean+1).
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	g := int(math.Log(1-u) / math.Log(mean/(mean+1)))
	if g < 0 {
		g = 0
	}
	return g
}
