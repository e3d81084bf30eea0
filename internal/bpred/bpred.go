// Package bpred implements the branch-prediction structures of the
// baseline front-end described in §IV-A of the paper: a tournament
// (gshare + bimodal) direction predictor, a set-associative branch
// target buffer, a return address stack, and an indirect target cache
// ("Target Cache" in the paper, after Chang et al. [9]).
//
// The CPU model uses these to decide, per branch, whether the decoupled
// front-end follows the correct path (the FTQ keeps running ahead) or
// must be redirected (a misprediction penalty whose size depends on the
// pipeline stage that detects it).
package bpred

import (
	"entangling/internal/lru"
	"entangling/internal/trace"
)

// Config sizes the predictor structures. The defaults model the
// paper's Sunny-Cove-like baseline.
type Config struct {
	// GshareBits is log2 of the gshare counter table size.
	GshareBits int
	// BimodalBits is log2 of the bimodal counter table size.
	BimodalBits int
	// ChooserBits is log2 of the chooser table size.
	ChooserBits int
	// HistoryBits is the global-history length used by gshare.
	HistoryBits int
	// BTBSets and BTBWays size the branch target buffer.
	BTBSets, BTBWays int
	// RASSize is the return-address-stack depth.
	RASSize int
	// ITCBits is log2 of the indirect target cache size.
	ITCBits int
}

// DefaultConfig returns the baseline predictor configuration.
func DefaultConfig() Config {
	return Config{
		GshareBits:  16,
		BimodalBits: 14,
		ChooserBits: 14,
		HistoryBits: 16,
		BTBSets:     1024,
		BTBWays:     8,
		RASSize:     64,
		ITCBits:     12,
	}
}

// Outcome reports how the front-end handled one branch.
type Outcome struct {
	// PredTaken is the predicted direction (always true for
	// unconditional branches that hit in the BTB/RAS/ITC).
	PredTaken bool
	// PredTarget is the predicted target (0 when none was available).
	PredTarget uint64
	// BTBMiss is set when a direct branch's target was not in the BTB,
	// so the front-end could not follow it even with a correct
	// direction prediction. Detected at decode.
	BTBMiss bool
	// DirMispredict is set when the conditional direction was wrong.
	// Detected at execute.
	DirMispredict bool
	// TargetMispredict is set when the predicted target of a taken
	// branch was wrong (indirects, RAS underflow). Detected at execute.
	TargetMispredict bool
}

// Predictor bundles all front-end prediction state.
type Predictor struct {
	cfg Config

	gshare  []uint8
	bimodal []uint8
	chooser []uint8
	ghr     uint64

	// btb holds branch PCs, set by pc>>2; btbTargets is the payload
	// parallel to its slots.
	btb        *lru.Sets
	btbTargets []uint64
	// Index masks derived from cfg at construction.
	gshareMask, bimodalMask, chooserMask uint64
	histMask, itcMask                    uint64

	ras    []uint64
	rasTop int // number of valid entries (capped, wraps by overwrite)

	itc []uint64 // indirect target cache, direct mapped
	// path is a hashed branch-path history used to index the ITC.
	path uint64

	// Stats.
	Lookups          uint64
	CondLookups      uint64
	DirMispredicts   uint64
	BTBMisses        uint64
	TargetMispredict uint64
}

// New creates a predictor; zero-valued fields of cfg are filled from
// DefaultConfig.
func New(cfg Config) *Predictor {
	def := DefaultConfig()
	if cfg.GshareBits == 0 {
		cfg.GshareBits = def.GshareBits
	}
	if cfg.BimodalBits == 0 {
		cfg.BimodalBits = def.BimodalBits
	}
	if cfg.ChooserBits == 0 {
		cfg.ChooserBits = def.ChooserBits
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = def.HistoryBits
	}
	if cfg.BTBSets == 0 {
		cfg.BTBSets = def.BTBSets
	}
	if cfg.BTBWays == 0 {
		cfg.BTBWays = def.BTBWays
	}
	if cfg.RASSize == 0 {
		cfg.RASSize = def.RASSize
	}
	if cfg.ITCBits == 0 {
		cfg.ITCBits = def.ITCBits
	}
	p := &Predictor{
		cfg:        cfg,
		gshare:     make([]uint8, 1<<cfg.GshareBits),
		bimodal:    make([]uint8, 1<<cfg.BimodalBits),
		chooser:    make([]uint8, 1<<cfg.ChooserBits),
		btb:        lru.New(cfg.BTBSets, cfg.BTBWays),
		btbTargets: make([]uint64, cfg.BTBSets*cfg.BTBWays),
		ras:        make([]uint64, cfg.RASSize),
		itc:        make([]uint64, 1<<cfg.ITCBits),
	}
	p.gshareMask = uint64(1)<<cfg.GshareBits - 1
	p.bimodalMask = uint64(1)<<cfg.BimodalBits - 1
	p.chooserMask = uint64(1)<<cfg.ChooserBits - 1
	p.histMask = uint64(1)<<cfg.HistoryBits - 1
	p.itcMask = uint64(1)<<cfg.ITCBits - 1
	// Weakly initialize counters to "weakly taken/weakly use gshare".
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

// Process predicts and immediately trains on one branch instruction,
// returning how the front-end fared. in must be a branch.
func (p *Predictor) Process(in *trace.Instruction) Outcome {
	if !in.Branch.IsBranch() {
		return Outcome{}
	}
	p.Lookups++
	var out Outcome

	// Direction.
	predTaken := true
	if in.Branch == trace.CondBranch {
		p.CondLookups++
		predTaken = p.predictDirection(in.PC)
		if predTaken != in.Taken {
			out.DirMispredict = true
			p.DirMispredicts++
		}
		p.trainDirection(in.PC, in.Taken)
	}
	out.PredTaken = predTaken

	// Target.
	switch {
	case in.Branch == trace.Return:
		target, ok := p.popRAS()
		out.PredTarget = target
		if in.Taken && (!ok || target != in.Target) {
			out.TargetMispredict = true
			p.TargetMispredict++
		}

	case in.Branch.IsIndirect():
		idx := p.itcIndex(in.PC)
		out.PredTarget = p.itc[idx]
		if in.Taken && out.PredTarget != in.Target {
			out.TargetMispredict = true
			p.TargetMispredict++
		}
		p.itc[idx] = in.Target

	default: // direct branches: BTB provides the target
		i := p.btb.Lookup(in.PC>>2, in.PC)
		if i >= 0 {
			out.PredTarget = p.btbTargets[i]
		}
		// A miss, or a stale target, is a decode-time redirect.
		if in.Taken && predTaken && (i < 0 || out.PredTarget != in.Target) {
			out.BTBMiss = true
			p.BTBMisses++
		}
		if in.Taken {
			if i < 0 {
				i = p.btb.Victim(in.PC >> 2)
				p.btb.Install(i, in.PC)
			}
			p.btbTargets[i] = in.Target
		}
	}

	if in.Branch.IsCall() && in.Taken {
		p.pushRAS(in.PC + uint64(in.Size))
	}

	// Path history for the ITC: hash in every taken branch.
	if in.Taken {
		p.path = (p.path << 3) ^ (in.Target >> 2)
	}
	return out
}

func (p *Predictor) predictDirection(pc uint64) bool {
	g := p.gshare[p.gshareIndex(pc)]
	b := p.bimodal[p.bimodalIndex(pc)]
	if p.chooser[p.chooserIndex(pc)] >= 2 {
		return g >= 2
	}
	return b >= 2
}

func (p *Predictor) trainDirection(pc uint64, taken bool) {
	gi, bi, ci := p.gshareIndex(pc), p.bimodalIndex(pc), p.chooserIndex(pc)
	gCorrect := (p.gshare[gi] >= 2) == taken
	bCorrect := (p.bimodal[bi] >= 2) == taken
	if gCorrect != bCorrect {
		if gCorrect {
			p.chooser[ci] = satInc(p.chooser[ci])
		} else {
			p.chooser[ci] = satDec(p.chooser[ci])
		}
	}
	if taken {
		p.gshare[gi] = satInc(p.gshare[gi])
		p.bimodal[bi] = satInc(p.bimodal[bi])
	} else {
		p.gshare[gi] = satDec(p.gshare[gi])
		p.bimodal[bi] = satDec(p.bimodal[bi])
	}
	p.ghr = (p.ghr << 1) | boolBit(taken)
}

func satInc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return 3
}

func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return 0
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (p *Predictor) gshareIndex(pc uint64) uint64 {
	return ((pc >> 2) ^ (p.ghr & p.histMask)) & p.gshareMask
}

func (p *Predictor) bimodalIndex(pc uint64) uint64 {
	return (pc >> 2) & p.bimodalMask
}

func (p *Predictor) chooserIndex(pc uint64) uint64 {
	return (pc >> 2) & p.chooserMask
}

func (p *Predictor) itcIndex(pc uint64) uint64 {
	return ((pc >> 2) ^ p.path) & p.itcMask
}

func (p *Predictor) pushRAS(ret uint64) {
	if p.rasTop < len(p.ras) {
		p.ras[p.rasTop] = ret
		p.rasTop++
		return
	}
	// Overflow: shift (model a circular stack losing the oldest entry).
	copy(p.ras, p.ras[1:])
	p.ras[len(p.ras)-1] = ret
}

func (p *Predictor) popRAS() (uint64, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}

// CondAccuracy returns the direction-prediction accuracy so far.
func (p *Predictor) CondAccuracy() float64 {
	if p.CondLookups == 0 {
		return 1
	}
	return 1 - float64(p.DirMispredicts)/float64(p.CondLookups)
}
