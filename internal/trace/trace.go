// Package trace defines the instruction record, a compact binary
// on-disk format for instruction traces, mirroring the role of
// ChampSim's trace format in the paper's methodology (§IV-A), and the
// packed in-memory form the CPU model reads (packed.go).
//
// A trace is a sequence of dynamic instructions on the correct path
// (the paper's simulator, like ChampSim, does not model wrong-path
// execution). Each record carries the program counter, instruction
// size, branch behaviour, and an optional synthetic data address for
// the load/store side of the pipeline.
package trace

import "fmt"

// BranchType classifies an instruction's control-flow behaviour.
type BranchType uint8

// Branch types, following the classes the baseline front-end
// distinguishes: the BTB handles direct branches, the indirect target
// cache handles indirect jumps/calls, and the RAS handles returns.
const (
	NotBranch BranchType = iota
	// CondBranch is a direct conditional branch; Taken tells the outcome.
	CondBranch
	// DirectJump is an unconditional direct jump (always taken).
	DirectJump
	// DirectCall is a direct function call (always taken, pushes RAS).
	DirectCall
	// IndirectJump is an unconditional indirect jump.
	IndirectJump
	// IndirectCall is an indirect function call (pushes RAS).
	IndirectCall
	// Return pops the RAS.
	Return
)

// String returns a short mnemonic for the branch type.
func (b BranchType) String() string {
	switch b {
	case NotBranch:
		return "none"
	case CondBranch:
		return "cond"
	case DirectJump:
		return "jmp"
	case DirectCall:
		return "call"
	case IndirectJump:
		return "ijmp"
	case IndirectCall:
		return "icall"
	case Return:
		return "ret"
	default:
		return fmt.Sprintf("BranchType(%d)", uint8(b))
	}
}

// IsBranch reports whether the type is any kind of branch.
func (b BranchType) IsBranch() bool { return b != NotBranch }

// IsCall reports whether the type pushes a return address.
func (b BranchType) IsCall() bool { return b == DirectCall || b == IndirectCall }

// IsIndirect reports whether the target cannot come from the BTB alone.
func (b BranchType) IsIndirect() bool { return b == IndirectJump || b == IndirectCall }

// IsUnconditional reports whether the branch is always taken.
func (b BranchType) IsUnconditional() bool { return b.IsBranch() && b != CondBranch }

// Instruction is one dynamic instruction record.
type Instruction struct {
	// PC is the virtual address of the first byte of the instruction.
	PC uint64
	// Target is the address of the next instruction when a branch is
	// taken. It is meaningful only when Branch.IsBranch() and Taken.
	Target uint64
	// DataAddr is the (synthetic) virtual address touched when IsLoad
	// or IsStore is set.
	DataAddr uint64
	// Size is the instruction length in bytes.
	Size uint8
	// Branch classifies control flow.
	Branch BranchType
	// Taken is the actual branch outcome (always true for
	// unconditional branches).
	Taken bool
	// IsLoad marks a memory read.
	IsLoad bool
	// IsStore marks a memory write.
	IsStore bool
}

// NextPC returns the address of the dynamically next instruction.
func (in *Instruction) NextPC() uint64 {
	if in.Branch.IsBranch() && in.Taken {
		return in.Target
	}
	return in.PC + uint64(in.Size)
}

// Source is a stream of dynamic instructions. Next fills in and
// returns true, or returns false at end of stream. Implementations are
// the synthetic workload walker and the trace file Reader.
type Source interface {
	Next(in *Instruction) bool
}

// Copy passes src's records to put, one at a time, until n records
// are passed, src ends or put fails, and returns how many records put
// accepted. put's record is reused by the next call. When src is a
// decoder with an Err method, its decode error ends the copy too.
func Copy(put func(*Instruction) error, src Source, n uint64) (uint64, error) {
	var in Instruction
	var i uint64
	for ; i < n && src.Next(&in); i++ {
		if err := put(&in); err != nil {
			return i, err
		}
	}
	if d, ok := src.(interface{ Err() error }); ok {
		return i, d.Err()
	}
	return i, nil
}

// SliceSource serves instructions from an in-memory slice. Tests feed
// hand-written record streams through it.
type SliceSource struct {
	Instrs []Instruction
	pos    int
}

// Next implements Source.
func (s *SliceSource) Next(in *Instruction) bool {
	if s.pos >= len(s.Instrs) {
		return false
	}
	*in = s.Instrs[s.pos]
	s.pos++
	return true
}
