// Package workload synthesizes deterministic instruction streams that
// stand in for the paper's proprietary Qualcomm CVP-1/CVP-2 traces and
// the CloudSuite traces (§IV-A).
//
// A workload is built in two steps. First a static program is laid out:
// functions composed of basic blocks, placed sequentially in a virtual
// code region, with a static control-flow graph (conditional branches,
// loops, direct and indirect calls, returns) whose shape is drawn from
// per-category parameters. Second, a dynamic walker interprets that
// graph with a seeded RNG, yielding the correct-path instruction stream
// the CPU model consumes.
//
// The categories reproduce the *statistical* properties the Entangling
// prefetcher (and its competitors) are sensitive to: instruction
// footprint relative to the 32KB L1I, depth and recurrence of call
// chains, basic-block size distribution, and branch behaviour. They do
// not reproduce instruction semantics, which no prefetcher in the paper
// observes.
package workload

import (
	"fmt"
	"math"
)

// Category labels match the CVP workload classes used throughout the
// paper's evaluation, plus the CloudSuite class of Figure 16.
type Category string

// Workload categories.
const (
	Crypto Category = "crypto"
	Int    Category = "int"
	FP     Category = "fp"
	Srv    Category = "srv"
	Cloud  Category = "cloud"

	// JIT models a managed-runtime process whose code layout is not
	// stable: a tier-up compiler periodically recompiles (and moves) a
	// fraction of the hot functions, so learned PC-indexed state keeps
	// pointing at dead addresses.
	JIT Category = "jit"
	// Micro models a microservice under interrupt pressure: a srv-like
	// request mix punctuated by asynchronous excursions into handler
	// code that evict the front-end working set at unpredictable
	// points.
	Micro Category = "micro"
	// Serverless models function-as-a-service cold starts: every N
	// instructions the process restarts at a fresh code mapping, so the
	// L1I and BTB start cold again (the motivation PAPERS.md cites for
	// cold-start-dominated fleets).
	Serverless Category = "serverless"

	// TraceCat marks trace-backed workloads (ingested real traces, not
	// synthesized programs). It has no Preset.
	TraceCat Category = "trace"
)

// Params fully determines a synthetic workload (together with Seed).
type Params struct {
	// Name identifies the workload in reports, e.g. "srv-07".
	Name string
	// Category is the workload class.
	Category Category
	// Seed drives both static program construction and the dynamic walk.
	Seed uint64

	// Functions is the number of functions in the program.
	Functions int
	// MeanBlocks is the average number of basic blocks per function.
	MeanBlocks int
	// MeanBlockInstrs is the average number of instructions per block.
	MeanBlockInstrs int

	// CallFrac is the probability that a block terminator is a direct
	// call.
	CallFrac float64
	// IndirectFrac is the probability that a block terminator is an
	// indirect call.
	IndirectFrac float64
	// JumpFrac is the probability that a block terminator is a direct
	// jump.
	JumpFrac float64
	// CondFrac is the probability that a block terminator is a
	// conditional branch.
	CondFrac float64

	// LoopBackProb is the probability that a conditional branch targets
	// an earlier block (forming a loop).
	LoopBackProb float64
	// LoopIterMean is the mean trip count of loops.
	LoopIterMean float64
	// CondTakenBias is the taken probability of forward conditional
	// branches.
	CondTakenBias float64

	// CallSkew concentrates call targets on few hot functions; larger
	// values mean a flatter (server-like) distribution is NOT used —
	// skew > 1 concentrates, 1 is uniform-ish.
	CallSkew float64
	// MaxCallDepth bounds the simulated call stack.
	MaxCallDepth int

	// LoadFrac and StoreFrac are per-instruction probabilities of
	// memory operations (non-terminator instructions only).
	LoadFrac  float64
	StoreFrac float64
	// DataFootprint is the size of the heap data region in bytes.
	DataFootprint uint64

	// PhaseLen, when non-zero, reshuffles the indirect-call target
	// permutation every PhaseLen dynamic instructions, modelling the
	// phase changes of long-running cloud services.
	PhaseLen uint64

	// DriverFanout is how many distinct functions the driver's dispatch
	// sites can reach (vtable/event-loop breadth). It controls the
	// steady-state instruction working set: request-driven server code
	// disperses over far more code per unit time than a crypto kernel.
	DriverFanout int
	// DispatchSkew is the runtime popularity skew of dispatch-site
	// target selection (u^skew over the target table): request mixes
	// are Zipf-like, so a hot head of the table gets most traffic while
	// the tail keeps the footprint large.
	DispatchSkew float64

	// PathFlavors is the number of deterministic control-flow variants
	// per dispatched request. Real request handlers execute (almost)
	// deterministically given the request type; without this long-range
	// determinism, the recurring source->destination correlations that
	// history-based instruction prefetchers exploit would not exist.
	PathFlavors int
	// PathNoise is the fraction of control decisions that remain truly
	// random (data-dependent branches), keeping predictors and
	// prefetchers below perfect.
	PathNoise float64

	// CodePhaseLen, when non-zero, relocates a random CodeRelocFrac of
	// the functions to fresh addresses every CodePhaseLen dynamic
	// instructions — a JIT tier-up that recompiles hot code elsewhere.
	// Entangled pairs and BTB entries learned at the old addresses
	// never hit again.
	CodePhaseLen uint64
	// CodeRelocFrac is the fraction of functions moved per code phase
	// (in [0,1]; meaningful only with CodePhaseLen > 0).
	CodeRelocFrac float64

	// InterruptEvery, when non-zero, diverts the walk roughly every
	// InterruptEvery instructions into one of the last InterruptFns
	// functions (the "interrupt handlers"), returning to the
	// interrupted instruction afterwards — asynchronous excursions at
	// points no history-based predictor can correlate with the
	// interrupted code.
	InterruptEvery uint64
	// InterruptFns is how many trailing functions serve as interrupt
	// handlers (>= 1 when InterruptEvery > 0; must leave at least the
	// driver plus one callee outside the handler set).
	InterruptFns int

	// ColdEvery, when non-zero, restarts the walk every ColdEvery
	// instructions at the driver entry inside a fresh code mapping
	// (every address shifted to a new epoch base): a serverless cold
	// start, where the L1I, BTB and prefetcher state warm from zero.
	ColdEvery uint64

	// TraceSHA256, when non-empty, marks a trace-backed workload: the
	// stream comes from an ingested trace with this content address,
	// not from a synthesized program, and every program-shape field
	// above is ignored. It feeds the workload's identity (warmup
	// classes, cell fingerprints) the same way program parameters do
	// for synthetic workloads.
	TraceSHA256 string
}

// Validate reports the first structural problem with p, or nil.
func (p *Params) Validate() error {
	if p.TraceSHA256 != "" {
		// Trace-backed: the stream is stored bytes, already validated
		// at ingest; there is no program shape to check.
		return nil
	}
	switch {
	case p.Functions < 2:
		// The driver dispatches to the other functions; it needs one.
		return fmt.Errorf("workload %s: Functions must be >= 2", p.Name)
	case p.MeanBlocks < 1:
		return fmt.Errorf("workload %s: MeanBlocks must be >= 1", p.Name)
	case p.MeanBlockInstrs < 1:
		return fmt.Errorf("workload %s: MeanBlockInstrs must be >= 1", p.Name)
	case p.MaxCallDepth < 1:
		return fmt.Errorf("workload %s: MaxCallDepth must be >= 1", p.Name)
	case !(p.CallSkew > 0) || math.IsInf(p.CallSkew, 1):
		// pickCallee raises a uniform draw to this power; NaN indexes
		// out of range, and 0, negatives and +Inf pin every draw to
		// one function, which it then redraws forever.
		return fmt.Errorf("workload %s: CallSkew must be finite and > 0", p.Name)
	case math.IsNaN(p.DispatchSkew) || math.IsInf(p.DispatchSkew, 0):
		return fmt.Errorf("workload %s: DispatchSkew must be finite", p.Name)
	case !in01(p.CallFrac) || !in01(p.IndirectFrac) || !in01(p.JumpFrac) || !in01(p.CondFrac):
		return fmt.Errorf("workload %s: CallFrac, IndirectFrac, JumpFrac and CondFrac must be in [0,1]", p.Name)
	case p.CallFrac+p.IndirectFrac+p.JumpFrac+p.CondFrac > 1.0:
		return fmt.Errorf("workload %s: terminator fractions exceed 1", p.Name)
	case p.LoopIterMean < 0:
		return fmt.Errorf("workload %s: LoopIterMean must be >= 0", p.Name)
	case !in01(p.LoopBackProb):
		return fmt.Errorf("workload %s: LoopBackProb must be in [0,1]", p.Name)
	case !in01(p.CondTakenBias):
		return fmt.Errorf("workload %s: CondTakenBias must be in [0,1]", p.Name)
	case !in01(p.LoadFrac) || !in01(p.StoreFrac):
		return fmt.Errorf("workload %s: LoadFrac and StoreFrac must be in [0,1]", p.Name)
	case p.LoadFrac+p.StoreFrac > 1:
		return fmt.Errorf("workload %s: LoadFrac + StoreFrac exceeds 1", p.Name)
	case p.DriverFanout < 1:
		return fmt.Errorf("workload %s: DriverFanout must be >= 1", p.Name)
	case p.PathFlavors < 1:
		return fmt.Errorf("workload %s: PathFlavors must be >= 1", p.Name)
	case !in01(p.PathNoise):
		return fmt.Errorf("workload %s: PathNoise must be in [0,1]", p.Name)
	case !in01(p.CodeRelocFrac):
		return fmt.Errorf("workload %s: CodeRelocFrac must be in [0,1]", p.Name)
	case p.InterruptEvery > 0 && p.InterruptFns < 1:
		return fmt.Errorf("workload %s: InterruptEvery needs InterruptFns >= 1", p.Name)
	case p.InterruptEvery > 0 && p.InterruptFns > p.Functions-2:
		return fmt.Errorf("workload %s: InterruptFns %d leaves fewer than 2 non-handler functions",
			p.Name, p.InterruptFns)
	case p.InterruptEvery == 0 && p.InterruptFns != 0:
		return fmt.Errorf("workload %s: InterruptFns without InterruptEvery", p.Name)
	}
	return nil
}

// in01 reports whether x is a fraction in [0,1]; NaN is not.
func in01(x float64) bool { return x >= 0 && x <= 1 }

// Preset returns the base parameters for a category. The footprints are
// chosen relative to the 32KB L1I so baseline MPKI falls in the ranges
// the paper reports: crypto slightly above the cache size (the paper
// keeps only traces with >= 1 MPKI), int/fp a few times larger, srv an
// order of magnitude larger with deep, flat call graphs.
func Preset(c Category) Params {
	switch c {
	case Crypto:
		return Params{
			Category: Crypto, Functions: 280, MeanBlocks: 6, MeanBlockInstrs: 12,
			CallFrac: 0.10, IndirectFrac: 0.01, JumpFrac: 0.08, CondFrac: 0.45,
			LoopBackProb: 0.45, LoopIterMean: 24, CondTakenBias: 0.35,
			CallSkew: 2.2, MaxCallDepth: 24,
			LoadFrac: 0.22, StoreFrac: 0.10, DataFootprint: 1 << 16,
			DriverFanout: 20, DispatchSkew: 2.0, PathFlavors: 2, PathNoise: 0.02,
		}
	case Int:
		return Params{
			Category: Int, Functions: 900, MeanBlocks: 7, MeanBlockInstrs: 8,
			CallFrac: 0.14, IndirectFrac: 0.02, JumpFrac: 0.08, CondFrac: 0.50,
			LoopBackProb: 0.30, LoopIterMean: 10, CondTakenBias: 0.40,
			CallSkew: 1.5, MaxCallDepth: 32,
			LoadFrac: 0.26, StoreFrac: 0.12, DataFootprint: 1 << 21,
			DriverFanout: 400, DispatchSkew: 1.8, PathFlavors: 4, PathNoise: 0.04,
		}
	case FP:
		return Params{
			Category: FP, Functions: 650, MeanBlocks: 6, MeanBlockInstrs: 16,
			CallFrac: 0.10, IndirectFrac: 0.01, JumpFrac: 0.06, CondFrac: 0.40,
			LoopBackProb: 0.45, LoopIterMean: 25, CondTakenBias: 0.30,
			CallSkew: 1.7, MaxCallDepth: 24,
			LoadFrac: 0.30, StoreFrac: 0.14, DataFootprint: 1 << 22,
			DriverFanout: 100, DispatchSkew: 1.8, PathFlavors: 2, PathNoise: 0.03,
		}
	case Srv:
		return Params{
			Category: Srv, Functions: 1500, MeanBlocks: 8, MeanBlockInstrs: 7,
			CallFrac: 0.10, IndirectFrac: 0.04, JumpFrac: 0.08, CondFrac: 0.45,
			LoopBackProb: 0.22, LoopIterMean: 8, CondTakenBias: 0.45,
			CallSkew: 1.2, MaxCallDepth: 40,
			LoadFrac: 0.28, StoreFrac: 0.14, DataFootprint: 1 << 22,
			DriverFanout: 400, DispatchSkew: 2.2, PathFlavors: 4, PathNoise: 0.03,
		}
	case Cloud:
		return Params{
			Category: Cloud, Functions: 2200, MeanBlocks: 8, MeanBlockInstrs: 7,
			CallFrac: 0.10, IndirectFrac: 0.06, JumpFrac: 0.08, CondFrac: 0.45,
			LoopBackProb: 0.15, LoopIterMean: 5, CondTakenBias: 0.45,
			CallSkew: 1.05, MaxCallDepth: 56,
			LoadFrac: 0.28, StoreFrac: 0.14, DataFootprint: 1 << 22,
			DriverFanout: 900, DispatchSkew: 1.6, PathFlavors: 8, PathNoise: 0.05,
			PhaseLen: 400_000,
		}
	case JIT:
		// An int-like core whose layout churns: roughly a third of the
		// functions move every code phase, so the prefetcher relearns a
		// moving target. Phases are a few hundred k instructions — long
		// enough to warm entangled pairs, short enough that staleness
		// dominates steady state.
		return Params{
			Category: JIT, Functions: 800, MeanBlocks: 7, MeanBlockInstrs: 8,
			CallFrac: 0.13, IndirectFrac: 0.03, JumpFrac: 0.08, CondFrac: 0.48,
			LoopBackProb: 0.28, LoopIterMean: 9, CondTakenBias: 0.40,
			CallSkew: 1.5, MaxCallDepth: 32,
			LoadFrac: 0.25, StoreFrac: 0.12, DataFootprint: 1 << 21,
			DriverFanout: 350, DispatchSkew: 1.8, PathFlavors: 4, PathNoise: 0.04,
			CodePhaseLen: 250_000, CodeRelocFrac: 0.35,
		}
	case Micro:
		// A srv-like request mix with interrupt-heavy excursions: every
		// few thousand instructions an asynchronous handler hijacks the
		// front end mid-request, then control returns to the exact
		// interrupted instruction. The handlers are a small, hot set —
		// they stay cached, but the excursion points are uncorrelated
		// with the interrupted code.
		return Params{
			Category: Micro, Functions: 1400, MeanBlocks: 8, MeanBlockInstrs: 7,
			CallFrac: 0.10, IndirectFrac: 0.04, JumpFrac: 0.08, CondFrac: 0.45,
			LoopBackProb: 0.22, LoopIterMean: 8, CondTakenBias: 0.45,
			CallSkew: 1.2, MaxCallDepth: 40,
			LoadFrac: 0.28, StoreFrac: 0.14, DataFootprint: 1 << 22,
			DriverFanout: 380, DispatchSkew: 2.0, PathFlavors: 4, PathNoise: 0.03,
			InterruptEvery: 4_000, InterruptFns: 24,
		}
	case Serverless:
		// Function-as-a-service churn: every cold interval the process
		// restarts at a fresh code mapping, so the L1I and BTB warm
		// from zero. Moderate footprint (FaaS functions are small), but
		// nothing learned in one epoch transfers to the next.
		return Params{
			Category: Serverless, Functions: 600, MeanBlocks: 7, MeanBlockInstrs: 8,
			CallFrac: 0.12, IndirectFrac: 0.03, JumpFrac: 0.08, CondFrac: 0.46,
			LoopBackProb: 0.25, LoopIterMean: 8, CondTakenBias: 0.42,
			CallSkew: 1.4, MaxCallDepth: 28,
			LoadFrac: 0.26, StoreFrac: 0.12, DataFootprint: 1 << 20,
			DriverFanout: 250, DispatchSkew: 1.8, PathFlavors: 4, PathNoise: 0.03,
			ColdEvery: 300_000,
		}
	default:
		panic(fmt.Sprintf("workload: unknown category %q", c))
	}
}

// Vary derives a per-seed variant of p: each workload in a suite gets
// parameters jittered around the category preset (so the 48 synthetic
// workloads are not 48 reruns of one program). The jitter is a pure
// function of the seed.
func Vary(p Params, seed uint64) Params {
	r := splitmix64(seed)
	jitter := func(v float64, frac float64) float64 {
		r = splitmix64(r)
		u := float64(r>>11) / (1 << 53) // [0,1)
		return v * (1 - frac + 2*frac*u)
	}
	jitterInt := func(v int, frac float64) int {
		j := int(jitter(float64(v), frac) + 0.5)
		if j < 1 {
			j = 1
		}
		return j
	}
	out := p
	out.Seed = seed
	out.Functions = jitterInt(p.Functions, 0.30)
	out.MeanBlocks = jitterInt(p.MeanBlocks, 0.25)
	out.MeanBlockInstrs = jitterInt(p.MeanBlockInstrs, 0.25)
	out.CallFrac = clamp01(jitter(p.CallFrac, 0.25))
	out.IndirectFrac = clamp01(jitter(p.IndirectFrac, 0.25))
	out.CondFrac = clamp01(jitter(p.CondFrac, 0.15))
	out.LoopBackProb = clamp01(jitter(p.LoopBackProb, 0.25))
	out.LoopIterMean = jitter(p.LoopIterMean, 0.40)
	out.CondTakenBias = clamp01(jitter(p.CondTakenBias, 0.20))
	out.CallSkew = jitter(p.CallSkew, 0.20)
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 0.95 {
		return 0.95
	}
	return v
}

// splitmix64 is the standard 64-bit mix used for deterministic
// parameter derivation (independent of math/rand stream state).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
