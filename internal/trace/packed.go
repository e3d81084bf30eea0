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

// Pack packs a whole record slice.
func Pack(instrs []Instruction) (*Packed, error) {
	pk := NewPacker(len(instrs), 0)
	for i := range instrs {
		if err := pk.Append(&instrs[i]); err != nil {
			return nil, err
		}
	}
	return pk.Packed(), nil
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

// Packed returns the stream built so far. Appending more records
// afterwards does not change what it returned.
func (b *Packer) Packed() *Packed {
	p := b.p
	return &p
}

// PackedSource reads a packed stream and implements Source. Built over
// a Packed (NewPackedSource) it serves that stream. Built over another
// Source (Repack) it packs that source's records a window at a time and
// never reads a record before it is asked for.
type PackedSource struct {
	p   *Packed
	cur Cursor

	// Repacking state: from is the record source, nil for a stream
	// source; pk holds the current window, which p points at, and err
	// the first record that could not be packed.
	from Source
	pk   Packer
	in   Instruction
	err  error
}

// NewPackedSource returns a reader at the start of p.
func NewPackedSource(p *Packed) *PackedSource { return &PackedSource{p: p} }

// Repack returns src as a PackedSource: src itself when it is one,
// otherwise a reader that packs src's records as they are read.
func Repack(src Source) *PackedSource {
	if ps, ok := src.(*PackedSource); ok {
		return ps
	}
	s := &PackedSource{from: src}
	s.p = &s.pk.p
	return s
}

// Next implements Source.
func (s *PackedSource) Next(in *Instruction) bool {
	p, c, ok := s.Window(1)
	if ok {
		s.cur = p.decode(c, in)
	}
	return ok
}

// Window returns the stream and the cursor at the next unread record,
// for readers that decode in place and then report where they stopped
// with Seek. A repacking source first packs up to n more records when
// none is buffered. ok is false at the end of the stream.
func (s *PackedSource) Window(n int) (p *Packed, c Cursor, ok bool) {
	if s.cur.Op == len(s.p.Ops) && s.from != nil {
		s.refill(n)
	}
	return s.p, s.cur, s.cur.Op < len(s.p.Ops)
}

// Seek moves the read position to c, a cursor in the stream the last
// Window returned.
func (s *PackedSource) Seek(c Cursor) { s.cur = c }

// Err returns the error that ended a repacking source early: the first
// record of its source the packed form cannot hold. A simulator
// ignores a non-branch's target and a non-memory op's data address, so
// those are cleared rather than refused.
func (s *PackedSource) Err() error { return s.err }

// refill replaces the consumed window with up to n more records of the
// record source. The packer keeps its last NextPC(), which is also the
// cursor's, so the new window continues the stream.
func (s *PackedSource) refill(n int) {
	if s.err != nil {
		return
	}
	s.pk.p.Ops, s.pk.p.Words = s.pk.p.Ops[:0], s.pk.p.Words[:0]
	in := &s.in
	for range n {
		if !s.from.Next(in) {
			break
		}
		if in.Branch == NotBranch {
			in.Target = 0
		}
		if !in.IsLoad && !in.IsStore {
			in.DataAddr = 0
		}
		if err := s.pk.Append(in); err != nil {
			s.err = err
			break
		}
	}
	s.cur.Op, s.cur.Word = 0, 0
}
