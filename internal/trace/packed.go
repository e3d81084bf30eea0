package trace

import (
	"errors"
	"fmt"
)

// Packed in-memory form
//
// A cached trace stays in memory while every configuration of a sweep
// replays it, so it is held packed: each record keeps only what its
// predecessor does not imply, the way an entangled destination is kept
// relative to its source line.
//
//	Ops:   one byte per record:
//	           bits 0-2  BranchType
//	           bit  3    Taken
//	           bit  4    IsLoad
//	           bit  5    IsStore
//	           bit  6    escape: PC and Size are explicit
//	Words: the records' 8-byte fields, in record order:
//	           PC, Size   if escape (PC != prev.NextPC() or Size != DefaultSize)
//	           DataAddr   if a load or a store
//	           Target     if a branch, taken or not
//
// The op bits 0-5 are the ENTRACE1 flag bits. A sequential record costs
// one byte, a branch or memory op nine. A stream starts from PC 0, so
// its first record escapes unless it is a 4-byte instruction at 0.

// Op-byte fields of the packed form.
const (
	OpBranch = branchMask
	OpTaken  = flagTaken
	OpLoad   = flagLoad
	OpStore  = flagStore
	OpEscape = 1 << 6
)

// DefaultSize is the instruction size of a record without OpEscape.
const DefaultSize = 4

// ErrStrayTarget marks a branch target on a record that is not a
// branch: the packed form keeps targets for branches only.
var ErrStrayTarget = errors.New("trace: branch target on a non-branch record")

// Packed is an instruction stream in the packed in-memory form. It is
// immutable once built and safe to share; each reader keeps its own
// Cursor.
type Packed struct {
	Ops   []byte
	Words []uint64
}

// Len returns the number of records.
func (p *Packed) Len() int { return len(p.Ops) }

// Bytes returns the memory the stream holds, capacity included.
func (p *Packed) Bytes() uint64 { return uint64(cap(p.Ops)) + 8*uint64(cap(p.Words)) }

// Cursor is a read position in a Packed stream.
type Cursor struct {
	// Op and Word index the next record's op byte and first word.
	Op, Word int
	// PC is the previous record's NextPC(): the next record's PC
	// unless it escapes.
	PC uint64
}

// decode fills in with the record at c and returns the cursor after it.
func (p *Packed) decode(c Cursor, in *Instruction) Cursor {
	op := p.Ops[c.Op]
	c.Op++
	*in = Instruction{
		PC:      c.PC,
		Size:    DefaultSize,
		Branch:  BranchType(op & OpBranch),
		Taken:   op&OpTaken != 0,
		IsLoad:  op&OpLoad != 0,
		IsStore: op&OpStore != 0,
	}
	if op&OpEscape != 0 {
		in.PC, in.Size = p.Words[c.Word], uint8(p.Words[c.Word+1])
		c.Word += 2
	}
	if op&(OpLoad|OpStore) != 0 {
		in.DataAddr = p.Words[c.Word]
		c.Word++
	}
	if in.Branch != NotBranch {
		in.Target = p.Words[c.Word]
		c.Word++
	}
	c.PC = in.NextPC()
	return c
}

// Expand decodes the whole stream into records.
func (p *Packed) Expand() []Instruction {
	out := make([]Instruction, p.Len())
	var c Cursor
	for i := range out {
		c = p.decode(c, &out[i])
	}
	return out
}

// Packer builds a Packed stream record by record.
type Packer struct {
	p    Packed
	next uint64 // the last record's NextPC()
}

// NewPacker returns a Packer with capacity for the given numbers of
// records and words; the stream grows past them as needed.
func NewPacker(records, words int) *Packer {
	return &Packer{p: Packed{Ops: make([]byte, 0, records), Words: make([]uint64, 0, words)}}
}

// Append adds one record. It fails, adding nothing, on a record the
// packed form cannot hold exactly: a branch type beyond Return
// (ErrBadBranch), a target on a non-branch (ErrStrayTarget) or a data
// address on a non-memory record (ErrStrayData).
func (b *Packer) Append(in *Instruction) error {
	mem := in.IsLoad || in.IsStore
	var err error
	switch {
	case in.Branch > Return:
		err = ErrBadBranch
	case in.Branch == NotBranch && in.Target != 0:
		err = ErrStrayTarget
	case !mem && in.DataAddr != 0:
		err = ErrStrayData
	}
	if err != nil {
		return fmt.Errorf("trace: packing record %d at %#x: %w", len(b.p.Ops), in.PC, err)
	}
	op := byte(in.Branch)
	if in.Taken {
		op |= OpTaken
	}
	if in.IsLoad {
		op |= OpLoad
	}
	if in.IsStore {
		op |= OpStore
	}
	if in.PC != b.next || in.Size != DefaultSize {
		op |= OpEscape
		b.p.Words = append(b.p.Words, in.PC, uint64(in.Size))
	}
	if mem {
		b.p.Words = append(b.p.Words, in.DataAddr)
	}
	if in.Branch != NotBranch {
		b.p.Words = append(b.p.Words, in.Target)
	}
	b.p.Ops = append(b.p.Ops, op)
	b.next = in.NextPC()
	return nil
}

// Repack appends a record read from a source that may set fields a
// simulator ignores: it clears a non-branch's target and a non-memory
// record's data address, then appends as Append does. It still fails
// on a branch type beyond Return (ErrBadBranch).
func (b *Packer) Repack(in *Instruction) error {
	if in.Branch == NotBranch {
		in.Target = 0
	}
	if !in.IsLoad && !in.IsStore {
		in.DataAddr = 0
	}
	return b.Append(in)
}

// Packed returns the stream built so far. Appending more records
// afterwards does not change what it returned.
func (b *Packer) Packed() *Packed {
	p := b.p
	return &p
}

// PackedSource reads a packed stream and implements Source.
type PackedSource struct {
	p   *Packed
	cur Cursor
}

// NewPackedSource returns a reader at the start of p.
func NewPackedSource(p *Packed) *PackedSource { return &PackedSource{p: p} }

// Next implements Source.
func (s *PackedSource) Next(in *Instruction) bool {
	if s.cur.Op == s.p.Len() {
		return false
	}
	s.cur = s.p.decode(s.cur, in)
	return true
}
